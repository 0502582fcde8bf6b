// Runtime adaptation: the graceful-degradation side of the execution
// engine (recovery.go reacts to damage already done; this file acts before
// the damage lands).
//
// With an adapt.Policy configured, the engine watches the run through two
// deterministic signals — storage reservations (Manager.OnReserve, the only
// moments occupancy rises) and fault-model events (FailNode, SetDegraded) —
// and answers with three reaction families, all through the ordinary
// storage.Manager flow paths in virtual time:
//
//   - Pressure spill: when a burst buffer's occupancy crosses the policy's
//     high-water fraction, cold/large replicas are copied to the PFS and
//     evicted until projected occupancy falls below the low-water fraction
//     (hysteresis, so the engine does not thrash around one threshold).
//   - Fault-aware replication: after a node failure or at the opening of a
//     BB degradation window, sole-replica inputs of still-pending tasks are
//     proactively copied to the PFS, so a later failure costs one copy
//     instead of a full lineage re-execution.
//   - Degradation-aware admission: while a degradation window is open on a
//     buffer, new stage-ins and task writes bound for it fall back to the
//     PFS instead of queueing on degraded bandwidth.
//
// Every decision follows a total order (the spill order, workflow task
// order, documented tie-breaks), so adaptive runs replay bit-identically.
// Copies still in flight when the last task finishes are abandoned with the
// rest of the event queue (the makespan is fixed then, and the capacity
// audit accounts in-flight reservations), exactly like background
// checkpoint traffic.
// Without a policy every hook below is behind a nil check, and traces are
// bit-identical to a build without this file.
package exec

import (
	"bbwfsim/internal/adapt"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/storage"
	"bbwfsim/internal/trace"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// adaptCopy is one in-flight adaptation copy (spill or replication): the
// source service the copy reads from and the operation, so a lost source
// replica can cancel it.
type adaptCopy struct {
	src storage.Service
	op  *storage.Op
}

// adaptState is the engine's adaptation bookkeeping; nil on runs without an
// adapt policy.
type adaptState struct {
	pol adapt.Policy
	// spilling marks buffers between the high- and low-water marks: the
	// spill loop is draining them and new pressure tops it up instead of
	// re-arming at the high-water threshold (hysteresis).
	spilling map[storage.Service]bool
	// spills tracks in-flight spill copies by file; spillBytes sums their
	// sizes per source buffer (projected-occupancy accounting, so one
	// pressure wave does not spill the same bytes twice).
	spills     map[*workflow.File]*adaptCopy
	spillBytes map[storage.Service]units.Bytes
	// repls tracks in-flight replication copies by file; replications
	// counts copies started, against the policy budget.
	repls        map[*workflow.File]*adaptCopy
	replications int
	// degraded counts open degradation windows per service (windows may
	// overlap, so a bool would close early).
	degraded map[storage.Service]int
}

func newAdaptState(pol adapt.Policy) *adaptState {
	return &adaptState{
		pol:        pol,
		spilling:   map[storage.Service]bool{},
		spills:     map[*workflow.File]*adaptCopy{},
		spillBytes: map[storage.Service]units.Bytes{},
		repls:      map[*workflow.File]*adaptCopy{},
		degraded:   map[storage.Service]int{},
	}
}

// SetDegraded implements FaultController: the fault model brackets each
// bandwidth-degradation window with a true/false pair. Opening a window on
// a burst buffer triggers proactive replication off that buffer when the
// policy asks for it.
func (e *engine) SetDegraded(svc storage.Service, active bool) {
	if e.ad == nil {
		return
	}
	if !active {
		if e.ad.degraded[svc] > 0 {
			e.ad.degraded[svc]--
		}
		return
	}
	e.ad.degraded[svc]++
	if e.ad.pol.ReplicateOnFault && svc.Kind() != storage.KindPFS {
		e.adaptReplicate(svc)
	}
}

// adaptFallback reports whether degradation-aware admission redirects an
// allocation for f on svc to the PFS, recording the event. Inert without a
// policy or outside a degradation window.
func (e *engine) adaptFallback(t *workflow.Task, f *workflow.File, svc storage.Service) bool {
	if e.ad == nil || !e.ad.pol.DegradedFallback || e.ad.degraded[svc] == 0 {
		return false
	}
	e.tr.Record(e.now(), trace.AdaptFallback, t.ID(), f.ID()+"@"+svc.Name())
	return true
}

// --- Pressure spill -------------------------------------------------------

// adaptPressure is the Manager.OnReserve hook: every successful write/copy
// reservation lands here with its destination. A burst buffer above the
// high-water mark — or already mid-drain — gets its spill loop (re)run.
func (e *engine) adaptPressure(svc storage.Service) {
	if e.err != nil || svc.Kind() == storage.KindPFS {
		return
	}
	cap := float64(svc.Capacity())
	if cap <= 0 {
		return // unbounded buffers cannot be pressured
	}
	if !e.ad.spilling[svc] {
		if float64(svc.Used()) <= e.ad.pol.SpillHighWater*cap {
			return
		}
		e.ad.spilling[svc] = true
	}
	e.adaptSpill(svc)
}

// adaptSpill drains svc toward the low-water mark: it keeps starting spills
// of the coldest/largest replicas until the projected occupancy — current
// usage minus bytes already being spilled — falls below the target, then
// re-arms the high-water trigger once the last in-flight spill resolves.
func (e *engine) adaptSpill(svc storage.Service) {
	if e.err != nil {
		return
	}
	target := e.ad.pol.SpillLowWater * float64(svc.Capacity())
	for float64(svc.Used()-e.ad.spillBytes[svc]) > target {
		f := e.spillCandidate(svc)
		if f == nil || !e.spillFile(f, svc) {
			// Nothing spillable is left (all replicas pinned, mid-copy, or
			// checkpoints) or the PFS cannot take more; stop here and let
			// the next completion or reservation re-evaluate.
			break
		}
		if e.err != nil {
			return
		}
	}
	//bbvet:allow float-compare -- additions and subtractions of the same Size() terms cancel exactly; zero means no spill in flight
	if e.ad.spillBytes[svc] == 0 {
		// Drained (or stuck with nothing in flight): re-arm the trigger.
		delete(e.ad.spilling, svc)
	}
}

// spillCandidate picks the next replica to spill off svc: fewest
// unfinished consumers first (cold data leaves before hot), then largest
// size (fewest copies per freed byte), then file ID — a total order, so
// replays pick identically. Checkpoint snapshots are excluded (their chains
// manage their own replicas), as are files already mid-spill.
func (e *engine) spillCandidate(svc storage.Service) *workflow.File {
	return e.sys.Registry().MinOn(svc, e.spillBefore, e.spillExempt)
}

// spillExempt reports whether f is out of spillCandidate's reach: mid-spill
// or a checkpoint snapshot.
func (e *engine) spillExempt(f *workflow.File) bool {
	return e.ad.spills[f] != nil || e.ckptOf[f] != nil
}

// spillBefore reports whether a spills before b (see spillCandidate).
func (e *engine) spillBefore(a, b *workflow.File) bool {
	if e.readers[a.Index()] != e.readers[b.Index()] {
		return e.readers[a.Index()] < e.readers[b.Index()]
	}
	//bbvet:allow float-compare -- declared file sizes are never computed; the tie-break just needs any total order
	if a.Size() != b.Size() {
		return a.Size() > b.Size()
	}
	return a.ID() < b.ID()
}

// spillFile moves one replica off svc. When the PFS already holds a copy
// the spill is a pure eviction (free, instantaneous); otherwise the replica
// is copied to the PFS through a surviving node and evicted when the copy
// lands — reads meanwhile still see the BB replica. Reports whether any
// space was freed or put in flight.
func (e *engine) spillFile(f *workflow.File, svc storage.Service) bool {
	if e.sys.Registry().Has(f, e.sys.PFS()) {
		if err := e.sys.Manager().Evict(f, svc); err != nil {
			e.fail(err)
			return false
		}
		e.tr.Record(e.now(), trace.AdaptSpill, "", f.ID()+"@"+svc.Name())
		return true
	}
	node := e.copyNode(f, svc)
	if node == nil {
		return false
	}
	op, err := e.sys.Manager().Copy(node, f, svc, e.sys.PFS(), func() {
		delete(e.ad.spills, f)
		e.ad.spillBytes[svc] -= f.Size()
		if e.err != nil {
			return
		}
		if e.sys.Registry().Has(f, svc) {
			// The Has guard makes the release exactly-once: a racing
			// last-read eviction or node failure may have freed the BB
			// replica already.
			if err := e.sys.Manager().Evict(f, svc); err != nil {
				e.fail(err)
				return
			}
		}
		e.tr.Record(e.now(), trace.AdaptSpill, "", f.ID()+"@"+svc.Name())
		e.cfg.Metrics.Add(metrics.AdaptBytesTotal,
			metrics.Key{Tier: string(svc.Kind()), Op: metrics.OpSpill}, float64(f.Size()))
		e.adaptSpill(svc) // top up the drain, or re-arm the trigger
	})
	if err != nil {
		return false // the PFS cannot take it now; keep the BB replica
	}
	e.ad.spills[f] = &adaptCopy{src: svc, op: op}
	e.ad.spillBytes[svc] += f.Size()
	return true
}

// cancelSpill aborts an in-flight spill copy of f, returning its PFS
// reservation. No-op when none is in flight.
func (e *engine) cancelSpill(f *workflow.File) {
	rec := e.ad.spills[f]
	if rec == nil {
		return
	}
	rec.op.Cancel()
	delete(e.ad.spills, f)
	e.ad.spillBytes[rec.src] -= f.Size()
}

// --- Fault-aware replication ----------------------------------------------

// adaptReplicate copies sole-replica inputs of still-pending tasks to the
// PFS, in workflow task order (a total, deterministic order). A non-nil
// `only` restricts the sweep to replicas on that service (degradation
// windows threaten one buffer; node failures threaten every tier).
func (e *engine) adaptReplicate(only storage.Service) {
	if e.err != nil {
		return
	}
	for _, t := range e.wf.Tasks() {
		if e.done[t.Index()] {
			continue
		}
		for _, f := range t.Inputs() {
			e.replicateFile(f, only)
			if e.err != nil {
				return
			}
		}
	}
}

// replicateFile starts one proactive PFS copy of f unless it is already
// durable, already replicating, unlocatable (lineage recovery owns lost
// files), or the policy budget is spent.
func (e *engine) replicateFile(f *workflow.File, only storage.Service) {
	ad := e.ad
	if ad.repls[f] != nil {
		return
	}
	if ad.pol.ReplicationBudget > 0 && ad.replications >= ad.pol.ReplicationBudget {
		return
	}
	reg := e.sys.Registry()
	if reg.Has(f, e.sys.PFS()) {
		return
	}
	if only != nil && !reg.Has(f, only) {
		return
	}
	locs := reg.Locations(f)
	if len(locs) == 0 {
		return
	}
	src := locs[0] // sorted by service name; all are burst buffers here
	node := e.copyNode(f, src)
	if node == nil {
		return
	}
	op, err := e.sys.Manager().Copy(node, f, src, e.sys.PFS(), func() {
		delete(ad.repls, f)
		if e.err != nil {
			return
		}
		e.tr.Record(e.now(), trace.AdaptReplicate, "", f.ID()+"@"+src.Name()+"->pfs")
		e.cfg.Metrics.Add(metrics.AdaptBytesTotal,
			metrics.Key{Tier: string(src.Kind()), Op: metrics.OpReplicate}, float64(f.Size()))
	})
	if err != nil {
		return // the PFS cannot take it now; the replica stays sole
	}
	ad.replications++
	ad.repls[f] = &adaptCopy{src: src, op: op}
}

// cancelReplication aborts an in-flight replication copy of f, returning
// its PFS reservation. The budget charge is not refunded: the decision was
// made and its copy ran. No-op when none is in flight.
func (e *engine) cancelReplication(f *workflow.File) {
	rec := e.ad.repls[f]
	if rec == nil {
		return
	}
	rec.op.Cancel()
	delete(e.ad.repls, f)
}

// adaptReplicaLost reacts to a fault destroying the replica of f on svc: a
// spill or replication copy reading it dies with its source, so cancel and
// return the PFS reservation. Copies reading a different service survive.
func (e *engine) adaptReplicaLost(f *workflow.File, svc storage.Service) {
	if rec := e.ad.spills[f]; rec != nil && rec.src == svc {
		e.cancelSpill(f)
	}
	if rec := e.ad.repls[f]; rec != nil && rec.src == svc {
		e.cancelReplication(f)
	}
}

// copyNode returns the node an adaptation copy off svc routes through: the
// replica's creator while it is up (data locality, and the only node that
// can see a private-mode or node-local replica), else the first surviving
// node. Nil when the whole platform is down.
func (e *engine) copyNode(f *workflow.File, svc storage.Service) *platform.Node {
	if n := e.sys.Registry().Creator(f, svc); n != nil && !n.Down() {
		return n
	}
	for _, n := range e.sys.Platform().Nodes() {
		if !n.Down() {
			return n
		}
	}
	return nil
}
