package serve

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/store"
)

// DumpLog writes a data directory's mutation record as text: one line
// per WAL record in log order, then the checkpoints.
//
//	create session="a" n=16 measure=graph
//	batch session="a" seq=3 k=2 trace=4be1f0c2d5a9e813
//	  set id=1 r=0.5
//	  move id=0 x=0.25 y=1
//	drop session="a"
//	checkpoint session="b" seq=40 bytes=2113
//
// A batch line names the session's seq after the batch and its op count
// k, plus the trace id when the batch was traced; its ops follow, one
// per line in apply order. Per-op outcomes (rejections, post-op n and
// max) are not in the log, so they are not shown: Recover re-derives
// them. A torn WAL tail, which recovery would cut off, and checkpoint
// files recovery would skip are listed too.
//
// DumpLog only reads the store (Scan and LatestCheckpoints). Nothing
// parses its output, so the format carries no version.
func DumpLog(w io.Writer, st *store.Store) error {
	bw := bufio.NewWriter(w)
	var line []byte
	tail, err := st.Scan(func(rec store.Record) error {
		switch rec.Kind {
		case store.RecordCreate:
			pts, measure, err := decodeCreatePayload(rec.Payload)
			if err != nil {
				return fmt.Errorf("create %q: %w", rec.Session, err)
			}
			fmt.Fprintf(bw, "create session=%q n=%d measure=%s\n", rec.Session, len(pts), measure)
		case store.RecordBatch:
			muts, stamp, err := decodeBatchPayload(rec.Payload)
			if err != nil {
				return fmt.Errorf("batch %q seq=%d: %w", rec.Session, rec.Seq, err)
			}
			fmt.Fprintf(bw, "batch session=%q seq=%d k=%d", rec.Session, rec.Seq, len(muts))
			if stamp.TraceID != 0 {
				fmt.Fprintf(bw, " trace=%016x", stamp.TraceID)
			}
			bw.WriteByte('\n')
			for _, mu := range muts {
				line = appendOp(append(line[:0], "  "...), mu)
				bw.Write(append(line, '\n'))
			}
		case store.RecordDrop:
			fmt.Fprintf(bw, "drop session=%q\n", rec.Session)
		}
		return nil
	})
	if err != nil {
		bw.Flush()
		return fmt.Errorf("serve: dump log: %w", err)
	}
	if tail.Truncated {
		fmt.Fprintf(bw, "torn-tail segment=%d valid=%d dropped=%d corrupt=%t\n",
			tail.Segment, tail.ValidSize, tail.Dropped, tail.Corrupt)
	}
	ckpts, skipped, err := st.LatestCheckpoints()
	if err != nil {
		bw.Flush()
		return fmt.Errorf("serve: dump checkpoints: %w", err)
	}
	ids := make([]string, 0, len(ckpts))
	for id := range ckpts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ck := ckpts[id]
		fmt.Fprintf(bw, "checkpoint session=%q seq=%d bytes=%d\n", id, ck.Seq, len(ck.Payload))
	}
	for _, sk := range skipped {
		fmt.Fprintf(bw, "skipped-checkpoint %s\n", sk)
	}
	return bw.Flush()
}

// appendOp renders one mutation as text for DumpLog ("set id=3 r=0.5").
// Floats use strconv's shortest round-trip form and integers print
// exactly, so the text names the recorded op bit for bit; WAL records
// themselves carry the binary op block (codec.go).
func appendOp(dst []byte, mu Mutation) []byte {
	appendFloat := func(dst []byte, f float64) []byte {
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	switch mu.Op {
	case OpAdd:
		dst = append(dst, "add id="...)
		dst = strconv.AppendInt(dst, mu.Node, 10)
		dst = append(dst, " x="...)
		dst = appendFloat(dst, mu.X)
		dst = append(dst, " y="...)
		return appendFloat(dst, mu.Y)
	case OpRemove:
		dst = append(dst, "remove id="...)
		return strconv.AppendInt(dst, mu.Node, 10)
	case OpMove:
		dst = append(dst, "move id="...)
		dst = strconv.AppendInt(dst, mu.Node, 10)
		dst = append(dst, " x="...)
		dst = appendFloat(dst, mu.X)
		dst = append(dst, " y="...)
		return appendFloat(dst, mu.Y)
	case OpSetRadius:
		dst = append(dst, "set id="...)
		dst = strconv.AppendInt(dst, mu.Node, 10)
		dst = append(dst, " r="...)
		return appendFloat(dst, mu.R)
	case OpAnneal:
		dst = append(dst, "anneal iters="...)
		dst = strconv.AppendInt(dst, int64(mu.Iters), 10)
		dst = append(dst, " seed="...)
		return strconv.AppendInt(dst, mu.Seed, 10)
	}
	return append(dst, "unknown"...)
}
