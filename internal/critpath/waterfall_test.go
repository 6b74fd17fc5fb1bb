package critpath

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
	"time"
)

// oracleUS is the fmt-based microsecond formatter the waterfall used before
// the append encoder, kept as the reference.
func oracleUS(d Time) string {
	micros := d.Nanoseconds() / 1000
	if rem := d.Nanoseconds() % 1000; rem != 0 {
		return fmt.Sprintf("%d.%03d", micros, rem)
	}
	return fmt.Sprintf("%d", micros)
}

// oracleWaterfall renders runs with the fmt.Fprintf row formatting the
// append encoder replaced.
func oracleWaterfall(runs []LineageSet) string {
	var b bytes.Buffer
	b.WriteString("run,frame,hop,proc,start_us,dur_us,bytes\n")
	for _, set := range runs {
		for _, fl := range set.Frames {
			for _, h := range fl.Hops {
				fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%s,%d\n",
					set.Label, fl.Key, h.Name, h.Proc, oracleUS(h.Start), oracleUS(h.End-h.Start), h.Bytes)
			}
		}
	}
	return b.String()
}

// The waterfall row encoder must be a byte-identical replacement for the
// fmt.Fprintf formatting: any strings (written raw, as before), negative,
// whole-µs and sub-µs times and durations, and any byte count.
func FuzzWaterfallRow(f *testing.F) {
	f.Add("DYAD rep 0", "/ensemble/pair000/frame00001.pb", "write", "producer000", int64(1500), int64(3000), int64(659655))
	f.Add("run,\"B\"", "\xff\n", "kvs_commit", "", int64(-1500), int64(-500), int64(-1))
	f.Add("", "", "", "é", int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64))
	f.Add("x", "k", "read", "consumer000", int64(999), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, label, key, name, proc string, start, end, nbytes int64) {
		runs := []LineageSet{{Label: label, Frames: []FrameLineage{{Key: key, Hops: []Hop{
			{Name: name, Proc: proc, Start: Time(start), End: Time(end), Bytes: nbytes},
			{Name: proc, Proc: name, Start: Time(end), End: Time(start), Bytes: -nbytes},
		}}}}}
		var got bytes.Buffer
		if err := WriteWaterfall(&got, runs); err != nil {
			t.Fatal(err)
		}
		if want := oracleWaterfall(runs); got.String() != want {
			t.Fatalf("WriteWaterfall diverged from the reference formatting:\n got %q\nwant %q", got.String(), want)
		}
	})
}

// waterfallRuns builds two runs of frames lineages, four hops each.
func waterfallRuns(frames int) []LineageSet {
	hops := []string{"write", "kvs_commit", "transfer", "read"}
	var runs []LineageSet
	for r := 0; r < 2; r++ {
		set := LineageSet{Label: fmt.Sprintf("DYAD rep %d", r)}
		for f := 0; f < frames; f++ {
			fl := FrameLineage{Key: fmt.Sprintf("/ensemble/pair%03d/frame%05d.pb", f%8, f)}
			at := Time(f) * time.Millisecond
			for i, name := range hops {
				fl.Hops = append(fl.Hops, Hop{Name: name, Proc: "producer000", Start: at, End: at + Time(i+1)*1500, Bytes: 659655})
			}
			set.Frames = append(set.Frames, fl)
		}
		runs = append(runs, set)
	}
	return runs
}

// The waterfall allocates per document, not per hop: 100x more hop rows
// add zero allocations.
func TestWaterfallZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	allocs := func(frames int) float64 {
		runs := waterfallRuns(frames)
		return testing.AllocsPerRun(5, func() {
			if err := WriteWaterfall(io.Discard, runs); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, long := allocs(50), allocs(5000)
	if delta := long - base; delta > 0 {
		t.Fatalf("WriteWaterfall allocates per hop: %.0f allocs over 39600 extra hops (base %.0f, long %.0f)", delta, base, long)
	}
}

// failWriter rejects every write.
type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

// A write error on the destination must reach the caller, whether it
// surfaces mid-document (the buffer spills) or only at the final flush.
func TestWaterfallReturnsWriteError(t *testing.T) {
	errDisk := errors.New("disk full")
	for _, frames := range []int{1, 1000} {
		if err := WriteWaterfall(failWriter{errDisk}, waterfallRuns(frames)); !errors.Is(err, errDisk) {
			t.Errorf("frames=%d: WriteWaterfall error = %v, want %v", frames, err, errDisk)
		}
	}
}

// BenchmarkWriteWaterfall measures WriteWaterfall over two runs of 2048
// four-hop frame lineages.
func BenchmarkWriteWaterfall(b *testing.B) {
	runs := waterfallRuns(2048)
	var doc bytes.Buffer
	if err := WriteWaterfall(&doc, runs); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteWaterfall(io.Discard, runs); err != nil {
			b.Fatal(err)
		}
	}
}
