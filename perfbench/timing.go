package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"ssmobile/internal/cluster"
	"ssmobile/internal/engine"
	"ssmobile/internal/server"
)

// Span names. A recorder stores the index; spanNames gives the printed
// name (the per-layer metric prefix).
const (
	spOp = iota // one wear op: WriteAt, Tick and the periodic Sync
	spFSWrite
	spFSSync
	spTick
	spEngWrite
	spEngRead
	spEngTrim
	spEngCleanIdle
	spServerDo                   // + OpKind
	spClusterDo = spServerDo + 5 // + OpKind
	spRTT       = spClusterDo + 5
	numSpans    = spRTT + 1
)

var spanNames = [numSpans]string{
	spOp: "op", spFSWrite: "fs.write_ns", spFSSync: "fs.sync_ns", spTick: "storman.tick_ns",
	spEngWrite: "engine.write_ns", spEngRead: "engine.read_ns", spEngTrim: "engine.trim_ns",
	spEngCleanIdle: "engine.clean_idle_ns",
	spServerDo:     "server.do_ns.get", spServerDo + 1: "server.do_ns.put", spServerDo + 2: "server.do_ns.truncate",
	spServerDo + 3: "server.do_ns.delete", spServerDo + 4: "server.do_ns.sync",
	spClusterDo: "cluster.do_ns.get", spClusterDo + 1: "cluster.do_ns.put", spClusterDo + 2: "cluster.do_ns.truncate",
	spClusterDo + 3: "cluster.do_ns.delete", spClusterDo + 4: "cluster.do_ns.sync",
	spRTT: "rtt",
}

func isEngineSpan(name int32) bool { return name >= spEngWrite && name <= spEngCleanIdle }

// span is one decorator interval in host nanoseconds since the
// recorder's epoch. parent is the index of the enclosing span, -1 at
// top level.
type span struct {
	name, parent int32
	start, end   int64
}

// recorder keeps the spans of one goroutine in memory. A nil recorder
// records nothing, so untraced code paths pay one nil check.
type recorder struct {
	epoch time.Time
	spans []span
	open  int32
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<16), open: -1}
}

func (r *recorder) begin(name int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: r.open, start: int64(time.Since(r.epoch))})
	r.open = int32(len(r.spans) - 1)
	return r.open
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	sp := &r.spans[i]
	sp.end = int64(time.Since(r.epoch))
	r.open = sp.parent
}

// timers is the per-name duration sample of one traced round, plus the
// self time of the caller spans that hold engine spans ("stack") and of
// the TCP hop ("tcp").
type timers struct {
	d     [numSpans][]int64
	stack []int64
	tcp   []int64
}

// addSpans folds a recorder's spans in. A top-level wear op or server
// request span is a caller span: its self time for stack.self_ns is its
// duration minus the engine spans beneath it.
func (t *timers) addSpans(spans []span) {
	engineUnder := make([]int64, len(spans))
	for i, sp := range spans {
		d := sp.end - sp.start
		t.d[sp.name] = append(t.d[sp.name], d)
		if !isEngineSpan(sp.name) {
			continue
		}
		top := int32(i)
		for spans[top].parent >= 0 {
			top = spans[top].parent
		}
		if top != int32(i) {
			engineUnder[top] += d
		}
	}
	for i, sp := range spans {
		if sp.parent < 0 && (sp.name == spOp || (sp.name >= spServerDo && sp.name < spClusterDo)) {
			t.stack = append(t.stack, sp.end-sp.start-engineUnder[i])
		}
	}
}

// writeSpans writes spans as tab-separated name, parent, start and end
// (host ns since the run's epoch).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tname\tparent\tstart_ns\tend_ns")
	for i, sp := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", i, spanNames[sp.name], sp.parent, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedEngine decorates an engine with spans around the calls the
// storage manager makes on its request and daemon paths.
type timedEngine struct {
	engine.Engine
	rec *recorder
}

func (e *timedEngine) WritePageTagged(lpn int64, data []byte, tag engine.Tag) error {
	s := e.rec.begin(spEngWrite)
	err := e.Engine.WritePageTagged(lpn, data, tag)
	e.rec.end(s)
	return err
}

func (e *timedEngine) ReadPage(lpn int64, buf []byte) error {
	s := e.rec.begin(spEngRead)
	err := e.Engine.ReadPage(lpn, buf)
	e.rec.end(s)
	return err
}

func (e *timedEngine) TrimPage(lpn int64) error {
	s := e.rec.begin(spEngTrim)
	err := e.Engine.TrimPage(lpn)
	e.rec.end(s)
	return err
}

func (e *timedEngine) CleanIdle() error {
	s := e.rec.begin(spEngCleanIdle)
	err := e.Engine.CleanIdle()
	e.rec.end(s)
	return err
}

// wrapEngine returns the decorator constructor for rec, or nil (no
// decorator at all) when rec is nil.
func wrapEngine(rec *recorder) func(engine.Engine) engine.Engine {
	if rec == nil {
		return nil
	}
	return func(e engine.Engine) engine.Engine { return &timedEngine{Engine: e, rec: rec} }
}

// Outcome of one request, as the shadow model needs it.
type outcome uint8

const (
	outOK outcome = iota
	outNotFound
	outShed
	outUnavailable
	outError
)

func classify(err error) outcome {
	switch {
	case err == nil:
		return outOK
	case errors.Is(err, server.ErrNotFound):
		return outNotFound
	case errors.Is(err, server.ErrOverloaded):
		return outShed
	case errors.Is(err, cluster.ErrUnavailable):
		return outUnavailable
	default:
		return outError
	}
}

// timedService decorates a Service. Every session it opens records each
// request's outcome, its virtual latency (Response.Latency) and its host
// time; with a recorder it also records a span per request named
// spanBase + request kind.
type timedService struct {
	server.Service
	rec      *recorder
	spanBase int32
	// onRequest, when set, is called with the running request count
	// after each request; the serve workload samples the live heap here.
	onRequest func(n int)
	n         int

	mu       sync.Mutex
	sessions []*timedDoer
}

func (s *timedService) OpenSession(tenant string) (server.RequestDoer, error) {
	d, err := s.Service.OpenSession(tenant)
	if err != nil {
		return nil, err
	}
	td := &timedDoer{svc: s, inner: d}
	s.mu.Lock()
	s.sessions = append(s.sessions, td)
	s.mu.Unlock()
	return td, nil
}

// requests reports the sessions in open order; call it only after the
// goroutines serving them are done.
func (s *timedService) requests() []*timedDoer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions
}

type timedDoer struct {
	svc   *timedService
	inner server.RequestDoer

	outcomes []outcome
	vlat     []int64 // virtual ns, completed requests only
	host     []int64 // host ns, every request
}

func (d *timedDoer) Do(req server.Request) (server.Response, error) {
	t0 := time.Now()
	s := d.svc.rec.begin(d.svc.spanBase + int32(req.Kind))
	resp, err := d.inner.Do(req)
	d.svc.rec.end(s)
	d.host = append(d.host, int64(time.Since(t0)))
	d.outcomes = append(d.outcomes, classify(err))
	if err == nil {
		d.vlat = append(d.vlat, int64(resp.Latency))
	}
	if f := d.svc.onRequest; f != nil {
		d.svc.n++
		f(d.svc.n)
	}
	return resp, err
}

// quantile reports the sample at rank q·n (rounded) of sorted xs.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i])
}

func sorted(xs []int64) []int64 {
	ys := slices.Clone(xs)
	slices.Sort(ys)
	return ys
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// medianF reports the median of xs.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := slices.Clone(xs)
	slices.Sort(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}
