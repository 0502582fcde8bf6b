package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bbwfsim/internal/core"
	"bbwfsim/internal/runner"
	"bbwfsim/internal/service"
)

// bbsimd-mix: a closed loop, one request at a time over one keep-alive
// loopback connection, against an in-process simulation service (Workers =
// nproc, mixCacheEntries cache entries, cache journal on). The server starts empty on every run. See
// mixgen.go for the request stream.

// mixServer is one in-process bbsimd behind a loopback listener.
type mixServer struct {
	srv     *service.Server
	hs      *http.Server
	journal *service.Journal
	dir     string
	url     string
	client  *http.Client
	served  chan error
}

// startMix starts an empty server with its journal in a fresh directory,
// opens the connection and serves one warm-up request of each cold kind,
// from outside the stream.
func startMix() (*mixServer, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "bbsimd-")
	if err != nil {
		return nil, err
	}
	j, err := service.OpenJournal(filepath.Join(dir, "cache.journal"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		j.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	m := &mixServer{
		srv:     service.NewServer(service.Config{Workers: runtime.NumCPU(), CacheEntries: mixCacheEntries, Journal: j}),
		journal: j,
		dir:     dir,
		url:     "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		served: make(chan error, 1),
	}
	m.hs = &http.Server{Handler: m.srv}
	go func() { m.served <- m.hs.Serve(ln) }()

	if _, err := m.get("/healthz"); err != nil {
		m.close()
		return nil, err
	}
	g := newMixGen(-1)
	for _, kind := range []string{"genomes", "swarp", "gen", "sched", "small"} {
		b, err := json.Marshal(g.cold(kind))
		if err == nil {
			resp := m.post("/v1/run", b)
			if err = resp.err; err == nil && resp.status != http.StatusOK {
				err = fmt.Errorf("warm-up %s request: HTTP %d", kind, resp.status)
			}
		}
		if err != nil {
			m.close()
			return nil, err
		}
	}
	return m, nil
}

// setupMix starts the server setupRepeats times, keeping the last one.
func setupMix() (*mixServer, []spent, error) {
	var times []spent
	var m *mixServer
	for i := 0; i < setupRepeats; i++ {
		if m != nil {
			if err := m.close(); err != nil {
				return nil, nil, err
			}
		}
		t := now()
		var err error
		if m, err = startMix(); err != nil {
			return nil, nil, err
		}
		times = append(times, t.spent())
	}
	return m, times, nil
}

func (m *mixServer) get(path string) ([]byte, error) {
	resp, err := m.client.Get(m.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// close drains the server, stops the listener, waits for Serve to
// return, and removes the journal.
func (m *mixServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errDrain := m.srv.BeginDrain(ctx)
	errShut := m.hs.Shutdown(ctx)
	if err := <-m.served; err != http.ErrServerClosed && errShut == nil {
		errShut = err
	}
	m.client.CloseIdleConnections()
	errJ := m.journal.Close()
	errRm := os.RemoveAll(m.dir)
	for _, err := range []error{errDrain, errShut, errJ, errRm} {
		if err != nil {
			return err
		}
	}
	return nil
}

// mixResp is what the client saw for one request. Only the body's SHA-256
// is kept, so the benchmark's own heap does not grow with the number of
// requests a run sends and move the heap metric.
type mixResp struct {
	status int
	sum    [sha256.Size]byte
	err    error
	took   spent
}

func (m *mixServer) post(path string, body []byte) mixResp {
	var r mixResp
	resp, err := m.client.Post(m.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	got, err := io.ReadAll(resp.Body)
	r.sum, r.err = sha256.Sum256(got), err
	return r
}

// closedLoop sends the requests next yields, each after the answer to the
// previous one, until d of host time has elapsed or next has no more. It
// times every request in host and CPU time, and, with a clock, the
// reference kernel between requests; with a tracer it records an "http"
// span per request. The returned run time leaves the kernel's out.
func (m *mixServer) closedLoop(d time.Duration, next func(i int) (mixReq, bool, error), k *refClock, tr *tracer) ([]mixReq, []mixResp, spent, error) {
	var reqs []mixReq
	var out []mixResp
	start, before := now(), k.used()
	for i := 0; time.Since(start.wall) < d; i++ {
		q, more, err := next(i)
		if err != nil || !more {
			return reqs, out, start.spent().less(k.used().less(before)), err
		}
		k.tick()
		t := now()
		id := tr.begin("http", 0, i)
		r := m.post(q.path, q.body)
		tr.end(id)
		r.took = t.spent()
		reqs, out = append(reqs, q), append(out, r)
	}
	return reqs, out, start.spent().less(k.used().less(before)), nil
}

// fromList yields the requests of a fixed list.
func fromList(reqs []mixReq) func(i int) (mixReq, bool, error) {
	return func(i int) (mixReq, bool, error) {
		if i < len(reqs) {
			return reqs[i], true, nil
		}
		return mixReq{}, false, nil
	}
}

// offline evaluates every distinct single run of the stream, including
// campaign points, with service.Execute, fanned over nproc workers: the
// reference the responses are checked against, keyed by canonical hash.
func offline(reqs []mixReq) (map[string][]byte, error) {
	var keys []string
	byHash := map[string]*service.Request{}
	add := func(r *service.Request) error {
		h, err := r.CanonicalHash()
		if err != nil {
			return err
		}
		if _, ok := byHash[h]; !ok {
			byHash[h] = r
			keys = append(keys, h)
		}
		return nil
	}
	for _, q := range reqs {
		if q.replayOf >= 0 {
			continue
		}
		points, err := q.points()
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			if err := add(p); err != nil {
				return nil, err
			}
		}
	}
	docs, err := runner.Map(runtime.NumCPU(), len(keys), func(i int) ([]byte, error) {
		return service.Execute(byHash[keys[i]])
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	for i, k := range keys {
		out[k] = docs[i]
	}
	return out, nil
}

// points parses a request into the single runs it asks for: itself, or a
// campaign's per-seed points.
func (q mixReq) points() ([]*service.Request, error) {
	if q.path == "/v1/run" {
		r, err := service.ParseRequest(q.body)
		if err != nil {
			return nil, err
		}
		return []*service.Request{r}, nil
	}
	c, err := service.ParseCampaignRequest(q.body)
	if err != nil {
		return nil, err
	}
	out := make([]*service.Request, len(c.Seeds))
	for i, s := range c.Seeds {
		p := c.Base
		p.Seed = s
		out[i] = &p
	}
	return out, nil
}

// expected is the byte-exact body the service must answer q with.
func expected(q mixReq, ref map[string][]byte) ([]byte, error) {
	points, err := q.points()
	if err != nil {
		return nil, err
	}
	docs := make([][]byte, len(points))
	seeds := make([]int64, len(points))
	for i, p := range points {
		h, err := p.CanonicalHash()
		if err != nil {
			return nil, err
		}
		docs[i], seeds[i] = ref[h], p.Seed
	}
	if q.path == "/v1/run" {
		return docs[0], nil
	}
	return service.EncodeCampaign(seeds, docs)
}

// checkBody verifies one 2xx body, given by its SHA-256: byte-identical to
// the offline evaluation, which must decode.
func checkBody(q mixReq, sum [sha256.Size]byte, ref map[string][]byte) error {
	want, err := expected(q, ref)
	if err != nil {
		return err
	}
	if sha256.Sum256(want) != sum {
		return fmt.Errorf("body differs from the offline evaluation")
	}
	if q.path == "/v1/run" {
		_, err := core.DecodeResult(want)
		return err
	}
	var doc service.CampaignDoc
	if err := json.Unmarshal(want, &doc); err != nil {
		return err
	}
	for _, p := range doc.Points {
		if _, err := core.DecodeResult(p.Result); err != nil {
			return err
		}
	}
	return nil
}

// judge checks every response and logs its time; a failed, shed or wrong
// request is +Inf. A cold request's body must match the offline
// evaluation, a replay's the body of the request it repeats.
func judge(reqs []mixReq, resps []mixResp, ref map[string][]byte, r *report) *opLog {
	log := &opLog{}
	good := make([]bool, len(resps))
	for i, resp := range resps {
		ok := resp.err == nil && resp.status == http.StatusOK
		if ok {
			err := fmt.Errorf("body differs from the request it replays")
			if q := reqs[i]; q.replayOf < 0 {
				err = checkBody(q, resp.sum, ref)
			} else if good[q.replayOf] && resp.sum == resps[q.replayOf].sum {
				err = nil
			}
			if err != nil {
				r.note("request %d (%s): %v", i, reqs[i].kind, err)
				r.wrong++
				ok = false
			}
		}
		good[i] = ok
		log.add(resp.took, ok)
	}
	return log
}

func runMix(seed int64, seconds float64, traced bool) (*report, error) {
	if traced {
		return traceMix(seed)
	}
	m, setup, err := setupMix()
	if err != nil {
		return nil, err
	}
	g := newMixGen(seed)
	meter := startMeter()
	k := newRefClock()
	reqs, resps, run, err := m.closedLoop(time.Duration(seconds*float64(time.Second)),
		func(int) (mixReq, bool, error) {
			q, err := g.next()
			return q, true, err
		}, k, nil)
	mem := meter.finish()
	if errClose := m.close(); err == nil {
		err = errClose
	}
	if err != nil {
		return nil, err
	}

	ref, err := offline(reqs)
	if err != nil {
		return nil, err
	}
	r := newReport()
	log := judge(reqs, resps, ref, r)
	r.setEndToEnd(setup, log, run, mem, k)
	r.noteKinds(reqs, log)
	return r, nil
}

// noteKinds prints the CPU-time percentiles of each slot kind, so a change
// can be traced to the requests it moved (campaign requests, say).
func (r *report) noteKinds(reqs []mixReq, log *opLog) {
	byKind := map[string][]float64{}
	for i, q := range reqs {
		byKind[q.kind] = append(byKind[q.kind], log.cpuMS[i])
	}
	for _, k := range []string{"genomes", "swarp", "gen", "sched", "small", "replay", "campaign"} {
		xs := byKind[k]
		r.note("cpu ms %-8s n %5d  p50 %8.3f  p90 %8.3f", k, len(xs), percentile(xs, 0.5), percentile(xs, 0.9))
	}
}
