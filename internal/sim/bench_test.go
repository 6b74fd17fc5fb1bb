package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// BenchmarkSleepEvents measures the in-place sleep path: one process
// sleeping b.N times, whose wake-up is always the next event, so each sleep
// advances the clock and counts the event without touching the queue or
// switching coroutines (Proc.Sleep). BenchmarkSleepSwitch measures the
// switching path. The steady-state allocation budget is zero.
func BenchmarkSleepEvents(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSleepSwitch measures the switching sleep path: two processes
// sleeping at interleaved phases, so each wake-up finds the other's pending
// before it and every event is schedule + queue + a coroutine switch. The
// steady-state allocation budget is zero: deliver events carry a proc
// index, not a closure, and the queue's backing array is reused.
func BenchmarkSleepSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	spawnInterleaved(e, b.N/2+1)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkManyProcs measures baton passing across 100 interleaved procs.
func BenchmarkManyProcs(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	const procs = 100
	steps := b.N/procs + 1
	e.Prealloc(procs, procs+1)
	for i := 0; i < procs; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceContention measures queued grants under contention.
func BenchmarkResourceContention(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	r := NewResource(e, "dev", 1)
	const procs = 16
	steps := b.N/procs + 1
	for i := 0; i < procs; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				r.Use(p, 100*time.Nanosecond)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWakeBlock measures the Block/Wake baton-passing fast path: two
// processes handing control back and forth with no timer events involved.
func BenchmarkWakeBlock(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	var pa, pb *Proc
	rounds := b.N/2 + 1
	pa = e.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Block()
			pb.Wake()
		}
	})
	pb = e.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			pa.Wake()
			p.Block()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHeapChurn10k measures push/pop throughput with 10k+ events
// resident in the queue: every proc keeps one pending timer, so each Sleep
// churns a deep 4-ary heap, far deeper than any paper workload keeps
// pending (a few hundred producer/consumer pairs). A warm run grows the
// heap and every runtime pool to its high-water mark before the timer, and
// the timed region asserts the steady-state zero-allocation contract:
// 0 B/op.
func BenchmarkHeapChurn10k(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	const procs = 10_000
	spawn := func(steps int) {
		for i := 0; i < procs; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for s := 0; s < steps; s++ {
					// Spread wakeups so the queue stays full and ordering
					// work is non-trivial (random keys, not FIFO).
					p.Sleep(time.Duration(1+p.Rand().Intn(1000)) * time.Microsecond)
				}
			})
		}
	}
	steps := b.N/procs + 1
	// Warm run: the identical workload (same seed, same length), so every
	// queue structure and runtime pool reaches the exact high-water mark of
	// the measured run, which then allocates nothing.
	e.Prealloc(procs, procs+1)
	spawn(steps)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	e.Reset(1)
	e.Prealloc(procs, procs+1)
	spawn(steps)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	events := float64(procs) * float64(steps)
	if avg := float64(m1.TotalAlloc-m0.TotalAlloc) / events; avg >= 1 {
		b.Fatalf("steady-state churn allocated %.2f B/op, want 0", avg)
	}
}

// BenchmarkScaleEvents measures steady-state hold-model churn (pop the
// earliest event, push its successor a random hold later) on the 4-ary heap
// at 1k, 100k, and 1M resident events. No workload keeps more than a few
// thousand events pending; the deep rows record what the heap's O(log n)
// costs beyond that (DESIGN.md §3h). The q=heap suffix keeps the names of
// BENCH.json's earlier records.
func BenchmarkScaleEvents(b *testing.B) {
	depths := []struct {
		name    string
		pending int
	}{
		{"1k", 1_000},
		{"100k", 100_000},
		{"1M", 1_000_000},
	}
	for _, d := range depths {
		b.Run(fmt.Sprintf("pending=%s/q=heap", d.name), func(b *testing.B) {
			b.ReportAllocs()
			var q eventq
			q.grow(d.pending + 1)
			rng := NewRNG(9)
			hold := func() Time { return Time(1 + rng.Intn(1_000_000)) } // 1ns..1ms
			var seq int64
			push := func(at Time) {
				q.push(event{at: at, seq: seq, proc: noProc})
				seq++
			}
			for i := 0; i < d.pending; i++ {
				push(hold())
			}
			// Churn to the steady state before timing: at least two full
			// turnovers of the pending set, and no shorter than the
			// measured run itself.
			warm := 2 * d.pending
			if warm < b.N {
				warm = b.N
			}
			for i := 0; i < warm; i++ {
				ev := q.pop()
				push(ev.at + hold())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.pop()
				push(ev.at + hold())
			}
		})
	}
}

// BenchmarkRNG measures the deterministic random stream.
func BenchmarkRNG(b *testing.B) {
	b.ReportAllocs()
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
