package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// cell share Cell; Parent is the enclosing span's ID, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cell   int64  `json:"cell"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs call the same code at the cost of a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cells atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// cell allocates the identifier shared by the spans of one cell.
func (t *tracer) cell() int64 {
	if t == nil {
		return 0
	}
	return t.cells.Add(1)
}

// begin opens a span and returns its ID (-1 when not tracing).
func (t *tracer) begin(cell int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cell: cell, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// meanMS is the mean duration of the spans called name, in milliseconds,
// and how many there were.
func (t *tracer) meanMS(name string) (float64, int) {
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n) / 1e6, n
}

// write saves every span, with the host fingerprint, as one JSON document.
func (t *tracer) write(path string, fp fingerprint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Host  fingerprint `json:"host"`
		Spans []span      `json:"spans"`
	}{fp, t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// runtimeSample is a snapshot of the Go runtime's counters.
type runtimeSample struct {
	gcCPU, totalCPU   float64
	gcCycles          uint64
	allocs, allocByte uint64
	sched             *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func sampleRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	f := func(i int) float64 {
		if ms[i].Value.Kind() == metrics.KindFloat64 {
			return ms[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if ms[i].Value.Kind() == metrics.KindUint64 {
			return ms[i].Value.Uint64()
		}
		return 0
	}
	s := runtimeSample{gcCPU: f(0), totalCPU: f(1), gcCycles: u(2), allocs: u(3), allocByte: u(4)}
	if ms[5].Value.Kind() == metrics.KindFloat64Histogram {
		h := ms[5].Value.Float64Histogram()
		s.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return s
}

// runtimeDelta reports the runtime-layer metrics between two snapshots,
// per cell where the metric is a count.
func runtimeDelta(a, b runtimeSample, cells int) map[string]float64 {
	out := map[string]float64{}
	c := float64(max(cells, 1))
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	} else {
		out["runtime.gc_cpu_frac"] = 0
	}
	out["runtime.gc_cycles_per_cell"] = float64(b.gcCycles-a.gcCycles) / c
	out["runtime.allocs_per_cell"] = float64(b.allocs-a.allocs) / c
	out["runtime.alloc_mb_per_cell"] = float64(b.allocByte-a.allocByte) / c / (1 << 20)
	out["runtime.sched_lat_p99_us"] = 0
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		var total uint64
		d := make([]uint64, len(b.sched.Counts))
		for i := range d {
			d[i] = b.sched.Counts[i] - a.sched.Counts[i]
			total += d[i]
		}
		// The histogram's resolution bounds the answer: report the upper
		// edge of the bucket that holds the 99th percentile.
		want := uint64(float64(total) * 0.99)
		var run uint64
		for i, n := range d {
			run += n
			if run > want && total > 0 {
				out["runtime.sched_lat_p99_us"] = b.sched.Buckets[i+1] * 1e6
				break
			}
		}
	}
	return out
}

// profPackages are the packages a CPU profile's flat samples are grouped
// into; samples in any other package count only toward the total.
var profPackages = []string{
	"runtime", "event", "cpu", "cache", "proto", "netsim", "blockmap", "directory",
	"core", "mem", "workload", "machine", "faultinj", "simcache", "soak", "steal",
}

// packageOf maps a function's symbol name to its profPackages group: the
// Go runtime (including its internal packages) is "runtime", the
// simulator's internal packages go by their last path element, and
// everything else is "".
func packageOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(fn, "dsisim/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	}
	return ""
}

// profileFractions groups a gzip-compressed pprof CPU profile's samples by
// the package of their leaf frame (self time) and returns each
// profPackages group's share of all samples.
func profileFractions(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	byPkg := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		n := s.values[0] // sample count; values[1] is CPU nanoseconds
		total += n
		if fn := p.leafFunc(s.locs[0]); fn != "" {
			byPkg[packageOf(fn)] += n
		}
	}
	out := map[string]float64{}
	for _, pkg := range profPackages {
		out["prof."+pkg+"_frac"] = 0
		if total > 0 {
			out["prof."+pkg+"_frac"] = float64(byPkg[pkg]) / float64(total)
		}
	}
	return out, total, nil
}

// The minimal subset of the pprof protobuf schema (profile.proto) that
// grouping by leaf function needs.
type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	samples []pprofSample
	locFunc map[uint64]uint64 // location id -> innermost function id
	funName map[uint64]int64  // function id -> string table index
	strs    []string
}

func (p *pprofProfile) leafFunc(loc uint64) string {
	fid, ok := p.locFunc[loc]
	if !ok {
		return ""
	}
	si := p.funName[fid]
	if si < 0 || int(si) >= len(p.strs) {
		return ""
	}
	return p.strs[si]
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: a varint value or a byte payload.
type pbField struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// pbFields decodes one protobuf message's top-level fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		tag, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(tag >> 3), wire: int(tag & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = pbVarint(b); err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints returns a repeated integer field's values, packed or not.
func pbUints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(raw []byte) (*pprofProfile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &pprofProfile{locFunc: map[uint64]uint64{}, funName: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // Sample: location_id = 1, value = 2
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s pprofSample
			for _, sf := range fs {
				vs, err := pbUints(sf)
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, fid uint64
			gotLine := false
			for _, lf := range fs {
				switch {
				case lf.num == 1 && lf.wire == 0:
					id = lf.v
				case lf.num == 4 && !gotLine:
					// The first line is the innermost frame when
					// functions were inlined into this location.
					ls, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, x := range ls {
						if x.num == 1 && x.wire == 0 {
							fid, gotLine = x.v, true
						}
					}
				}
			}
			if gotLine {
				p.locFunc[id] = fid
			}
		case 5: // Function: id = 1, name = 2
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			name := int64(-1)
			for _, ff := range fs {
				switch {
				case ff.num == 1 && ff.wire == 0:
					id = ff.v
				case ff.num == 2 && ff.wire == 0:
					name = int64(ff.v)
				}
			}
			p.funName[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(f.bytes))
		}
	}
	return p, nil
}
