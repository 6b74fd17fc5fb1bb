package critpath

import (
	"bufio"
	"io"
	"strconv"

	"repro/internal/trace"
)

// LineageSet is one run's frame lineages tagged with the run's label, the
// unit the waterfall CSV is grouped by.
type LineageSet struct {
	Label  string
	Frames []FrameLineage
}

// WriteWaterfall writes frame provenance as a long-format CSV: one row per
// lineage hop, ordered by run, then frame first appearance, then hop
// recording order — a plotting-ready waterfall. Rows are encoded into one
// reused scratch buffer and written through a bufio.Writer, so a hop costs
// neither an allocation nor a write call on w.
func WriteWaterfall(w io.Writer, runs []LineageSet) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("run,frame,hop,proc,start_us,dur_us,bytes\n")
	var b []byte
	for _, set := range runs {
		for _, fl := range set.Frames {
			for _, h := range fl.Hops {
				b = append(b[:0], set.Label...)
				b = append(append(b, ','), fl.Key...)
				b = append(append(b, ','), h.Name...)
				b = append(append(b, ','), h.Proc...)
				b = trace.AppendMicros(append(b, ','), h.Start)
				b = trace.AppendMicros(append(b, ','), h.End-h.Start)
				b = strconv.AppendInt(append(b, ','), h.Bytes, 10)
				b = append(b, '\n')
				if _, err := bw.Write(b); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// FlowEvents converts frame lineages into Chrome flow events: one flow per
// frame, starting (ph "s") at the frame's first proc-bound hop and
// stepping (ph "f", binding point "e") through each subsequent hop — the
// arrows that stitch a frame's journey across proc tracks in a trace
// viewer. Frames whose lineage touches fewer than two procs' worth of
// hops draw no arrow and are skipped.
func FlowEvents(frames []FrameLineage) []trace.Flow {
	var out []trace.Flow
	id := int64(0)
	for _, fl := range frames {
		first := -1
		n := 0
		for i, h := range fl.Hops {
			if h.Proc == "" {
				continue
			}
			if first < 0 {
				first = i
			}
			n++
		}
		if n < 2 {
			continue
		}
		id++
		start := fl.Hops[first]
		out = append(out, trace.Flow{Name: fl.Key, ID: id, Proc: start.Proc, At: start.End, Start: true})
		for _, h := range fl.Hops[first+1:] {
			if h.Proc == "" {
				continue
			}
			out = append(out, trace.Flow{Name: fl.Key, ID: id, Proc: h.Proc, At: h.Start})
		}
	}
	return out
}
