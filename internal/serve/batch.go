package serve

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Op enumerates the mutation kinds a session pipeline applies.
type Op uint8

const (
	OpAdd Op = iota + 1
	OpRemove
	OpMove
	OpSetRadius
	OpAnneal
)

// String names the op as it appears in traces and the HTTP API.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpMove:
		return "move"
	case OpSetRadius:
		return "set"
	case OpAnneal:
		return "anneal"
	}
	return "unknown"
}

// opFromString inverts Op.String (also accepting the HTTP API's
// "set_radius" spelling).
func opFromString(s string) (Op, bool) {
	switch s {
	case "add":
		return OpAdd, true
	case "remove":
		return OpRemove, true
	case "move":
		return OpMove, true
	case "set", "set_radius":
		return OpSetRadius, true
	case "anneal":
		return OpAnneal, true
	}
	return 0, false
}

// Mutation is one pipeline operation. Node addresses the stable external
// node ID (not the engine index); for OpAdd a negative Node requests
// automatic assignment — use the constructors below, whose zero-valued
// fields are always safe.
type Mutation struct {
	Op    Op
	Node  int64   // target ID; for OpAdd: -1 = assign, >= 0 = forced (replay)
	X, Y  float64 // OpAdd, OpMove
	R     float64 // OpSetRadius
	Iters int     // OpAnneal
	Seed  int64   // OpAnneal

	// TC carries the distributed trace context of the request that
	// enqueued this mutation (nil = untraced); the batch that drains it
	// adopts the first traced mutation's context. EnqNS is the enqueue
	// wall clock, stamped by Apply while observability is on — the
	// flight recorder's queue-wait stage. Neither field is part of the
	// op encoding (codec.go): a WAL batch record carries the batch's
	// context once, in its fixed trace stamp (see logBatch).
	TC    *obs.TraceContext
	EnqNS int64
}

// Add enqueues a new node at (x, y) with an automatically assigned ID.
func Add(x, y float64) Mutation { return Mutation{Op: OpAdd, Node: -1, X: x, Y: y} }

// Remove deletes node id.
func Remove(id int64) Mutation { return Mutation{Op: OpRemove, Node: id} }

// Move relocates node id to (x, y), keeping its ID.
func Move(id int64, x, y float64) Mutation { return Mutation{Op: OpMove, Node: id, X: x, Y: y} }

// SetRadius overrides node id's transmission radius.
func SetRadius(id int64, r float64) Mutation { return Mutation{Op: OpSetRadius, Node: id, R: r} }

// AnnealStep runs a deterministic simulated-annealing budget over the
// whole instance, adopting the result.
func AnnealStep(iters int, seed int64) Mutation {
	return Mutation{Op: OpAnneal, Iters: iters, Seed: seed}
}

// checkCoord rejects non-finite or out-of-bound coordinates. The bound
// matters operationally: the spatial index allocates cells over the
// instance's bounding box, so a single coordinate at 1e9 would make one
// cheap mutation allocate gigabytes.
func checkCoord(x, y, maxCoord float64) error {
	bad := func(f float64) bool { return math.IsNaN(f) || math.Abs(f) > maxCoord }
	if bad(x) || bad(y) {
		return fmt.Errorf("coordinates (%v, %v) outside [-%g, %g]", x, y, maxCoord, maxCoord)
	}
	return nil
}

// validate rejects malformed mutations at enqueue time, so the owner
// goroutine never has to crash on garbage (NaN or far-flung coordinates,
// negative radii, unbounded anneal budgets).
func (mu Mutation) validate(maxAnnealIters int, maxCoord float64) error {
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	switch mu.Op {
	case OpAdd, OpMove:
		if err := checkCoord(mu.X, mu.Y, maxCoord); err != nil {
			return fmt.Errorf("serve: %s with %w", mu.Op, err)
		}
	case OpSetRadius:
		if bad(mu.R) || mu.R < 0 {
			return fmt.Errorf("serve: set radius %v out of range", mu.R)
		}
	case OpAnneal:
		if mu.Iters <= 0 || mu.Iters > maxAnnealIters {
			return fmt.Errorf("serve: anneal iters %d outside (0, %d]", mu.Iters, maxAnnealIters)
		}
	case OpRemove:
	default:
		return fmt.Errorf("serve: unknown op %d", mu.Op)
	}
	return nil
}

// coalesce collapses redundant mutations within one drained batch: only
// the last set-radius per node survives. Dropping the earlier writes is
// sound because intermediate states inside a batch are unobservable
// (snapshots publish at batch boundaries only), radius overrides trigger
// no rebuilds, and the anneal step derives from positions alone. Used
// only outside deterministic mode: a deterministic trace must record
// every op the client enqueued, or replaying it would re-derive
// different rejections.
func coalesce(batch []Mutation) []Mutation {
	lastSet := make(map[int64]int)
	sets := 0
	for i, mu := range batch {
		if mu.Op == OpSetRadius {
			lastSet[mu.Node] = i
			sets++
		}
	}
	if sets <= len(lastSet) {
		return batch
	}
	out := batch[:0]
	for i, mu := range batch {
		if mu.Op == OpSetRadius && lastSet[mu.Node] != i {
			continue
		}
		out = append(out, mu)
	}
	return out
}

// Trace format. A deterministic-mode session emits a self-contained
// textual log:
//
//	rimd-trace v1 n=<n>
//	p i=<idx> x=<x> y=<y>                   one line per initial node
//	m seq=<s> <op fields> n=<n> max=<max>   one line per processed op
//	b seq=<s> k=<k> n=<n> max=<max>         one line per applied batch
//
// Applied op fields are, by kind,
//
//	add id=<id> x=<x> y=<y>
//	remove id=<id>
//	move id=<id> x=<x> y=<y>
//	set id=<id> r=<r>
//	anneal iters=<k> seed=<s>
//
// and a mutation targeting a nonexistent node keeps its slot as
// "reject <op fields>", so replays stay aligned with the recorded
// decision sequence. Floats use strconv's shortest round-trip form, which
// makes the format byte-stable under parse/format cycles.
//
// The b line closes the batch formed by the k preceding m lines and
// records the post-batch state — after the maintainer's deferred
// connectivity repair and rebuild-drift check have run, which the per-op
// lines cannot see. Because of that deferral the final state depends on
// where the boundaries fall, so an exact replay must reproduce them:
// ParseTraceBatches recovers the groups and Session.ApplyBatch pins
// each one to a single pipeline batch.

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// formatOp renders the op-specific fields of a trace line.
func formatOp(mu Mutation) string { return string(appendOp(nil, mu)) }

// appendOp is formatOp in append form. It renders the deterministic
// trace only — WAL records carry the binary op block (codec.go) — and
// parseFields round-trips its output exactly, integers included.
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

// traceHeaderMeasure renders the instance preamble. Non-default
// measures append a measure= token to the header line; the graph
// default stays tokenless so existing traces and their parsers
// round-trip unchanged.
func traceHeaderMeasure(pts []geom.Point, measure string) []string {
	lines := make([]string, 0, len(pts)+1)
	head := fmt.Sprintf("rimd-trace v1 n=%d", len(pts))
	if measure != "" && measure != MeasureGraph {
		head += " measure=" + measure
	}
	lines = append(lines, head)
	for i, p := range pts {
		lines = append(lines, fmt.Sprintf("p i=%d x=%s y=%s", i, ftoa(p.X), ftoa(p.Y)))
	}
	return lines
}

// ErrTruncated reports trace text that does not end in a newline: the
// final line may be a longer record cut short (a partial copy, a torn
// file), so it cannot be trusted. ParseTrace returns it alongside the
// mutations parsed from the complete lines, letting a caller that knows
// the cut is benign keep the prefix.
var ErrTruncated = errors.New("serve: trace truncated (no final newline)")

// ParseTrace recovers the initial instance and the mutation sequence from
// trace text. Rejected ops are returned like applied ones — re-executing
// them through a fresh pipeline reproduces the same rejections, which is
// what keeps replay byte-identical. Lines starting with '#' are ignored.
//
// Every trace line is newline-terminated (TraceText guarantees it), so
// text that stops mid-line is damaged: the bytes after the last newline
// could be a complete-looking prefix of a longer record ("m seq=5 add
// id=3" cut from "...id=31 x=2 y=7"). ParseTrace refuses to guess — it
// parses the complete lines and returns them with ErrTruncated.
func ParseTrace(text string) (pts []geom.Point, ops []Mutation, err error) {
	pts, ops, _, err = parseTrace(text)
	return pts, ops, err
}

// ParseTraceBatches is ParseTrace with the batch structure kept: the
// mutation sequence comes back split at the recorded b markers, each
// group being one pipeline batch of the original run. Re-applying the
// groups through Session.ApplyBatch (one call per group, in order)
// reproduces the run's deferral points exactly, which is what makes the
// replay byte-identical to the recording. Ops after the final marker — a
// batch still in flight when the trace was captured — form a last
// unterminated group. Each marker's k count is validated against its
// group, so a trace whose ring buffer evicted lines (mid-stream cut) is
// rejected rather than replayed misaligned.
func ParseTraceBatches(text string) (pts []geom.Point, batches [][]Mutation, err error) {
	pts, ops, marks, err := parseTrace(text)
	if err != nil {
		return nil, nil, err
	}
	prev := 0
	for _, mk := range marks {
		if mk.end-prev != mk.k {
			return nil, nil, fmt.Errorf("serve: batch marker seq=%d claims k=%d but %d ops precede it",
				mk.seq, mk.k, mk.end-prev)
		}
		batches = append(batches, ops[prev:mk.end])
		prev = mk.end
	}
	if prev < len(ops) {
		batches = append(batches, ops[prev:])
	}
	return pts, batches, nil
}

// batchMark is a parsed b line: the op index it closes at, plus its
// recorded fields for validation.
type batchMark struct {
	end int
	seq uint64
	k   int
}

func parseTrace(text string) (pts []geom.Point, ops []Mutation, marks []batchMark, err error) {
	var truncated string
	if n := len(text); n > 0 && text[n-1] != '\n' {
		i := strings.LastIndexByte(text, '\n')
		truncated = text[i+1:]
		text = text[:i+1] // i == -1 leaves text empty: even the header is cut
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "rimd-trace v1 ") {
		if truncated != "" {
			return nil, nil, nil, fmt.Errorf("serve: header line %q cut short: %w", truncated, ErrTruncated)
		}
		return nil, nil, nil, fmt.Errorf("serve: not a rimd-trace v1 header: %q", first(lines))
	}
	for no, line := range lines[1:] {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		tf, perr := parseFields(fields)
		if perr != nil {
			return nil, nil, nil, fmt.Errorf("serve: trace line %d: %w", no+2, perr)
		}
		switch {
		case fields[0] == "p":
			pts = append(pts, geom.Pt(tf.floats["x"], tf.floats["y"]))
		case fields[0] == "m":
			mu, merr := opFromTrace(tf)
			if merr != nil {
				return nil, nil, nil, fmt.Errorf("serve: trace line %d: %w", no+2, merr)
			}
			ops = append(ops, mu)
		case fields[0] == "b":
			marks = append(marks, batchMark{end: len(ops), seq: uint64(tf.ints["seq"]), k: int(tf.ints["k"])})
		default:
			return nil, nil, nil, fmt.Errorf("serve: trace line %d: unknown record %q", no+2, fields[0])
		}
	}
	if truncated != "" {
		return pts, ops, marks, fmt.Errorf("serve: final line %q cut short: %w", truncated, ErrTruncated)
	}
	return pts, ops, marks, nil
}

func first(lines []string) string {
	if len(lines) == 0 {
		return ""
	}
	return lines[0]
}

// intTraceKeys are the trace keys whose values are integers. They parse
// as integers: through a float64, an id or seed above 2^53 would come
// back as a different number.
var intTraceKeys = map[string]bool{"id": true, "seed": true, "iters": true, "seq": true, "k": true, "n": true, "i": true}

// traceFields is one parsed trace line: the op verb (the first bare
// token after the record tag, skipping "reject" — rejection is an
// outcome, not an input, and replays re-derive it) and its values.
type traceFields struct {
	verb   string
	ints   map[string]int64
	floats map[string]float64
}

// parseFields parses a trace line's tokens; every value that is not an
// integer key must be a float.
func parseFields(fields []string) (traceFields, error) {
	tf := traceFields{ints: map[string]int64{}, floats: map[string]float64{}}
	for _, tok := range fields[1:] {
		k, v, isKV := strings.Cut(tok, "=")
		var err error
		switch {
		case !isKV:
			if tok != "reject" && tf.verb == "" {
				tf.verb = tok
			}
		case intTraceKeys[k]:
			tf.ints[k], err = strconv.ParseInt(v, 10, 64)
		default:
			tf.floats[k], err = strconv.ParseFloat(v, 64)
		}
		if err != nil {
			return traceFields{}, fmt.Errorf("bad value %q: %v", tok, err)
		}
	}
	return tf, nil
}

func opFromTrace(tf traceFields) (Mutation, error) {
	op, ok := opFromString(tf.verb)
	if !ok {
		return Mutation{}, fmt.Errorf("unknown op %q", tf.verb)
	}
	mu := Mutation{Op: op, Node: tf.ints["id"]}
	switch op {
	case OpAdd, OpMove:
		mu.X, mu.Y = tf.floats["x"], tf.floats["y"]
	case OpSetRadius:
		mu.R = tf.floats["r"]
	case OpAnneal:
		mu.Iters = int(tf.ints["iters"])
		mu.Seed = tf.ints["seed"]
	}
	return mu, nil
}
