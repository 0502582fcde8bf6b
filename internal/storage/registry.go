package storage

import (
	"fmt"
	"slices"
	"strings"

	"bbwfsim/internal/platform"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// Registry tracks where file replicas live. A file may be resident on any
// number of services at once (e.g. a workflow input on the PFS and a staged
// copy on the burst buffer). Each replica remembers which compute node
// created it, which is what the private DataWarp mode's visibility rule
// ("access to files in the BB are limited to the compute node that created
// them", paper Section III-D) is enforced against.
//
// Both directions are indexed. Each file keeps a short slice of its
// replicas in service-name order, and each service keeps a slot list of
// the files it holds; a replica records its file's slot, so Remove is a
// swap-delete. Per-file queries (Has, Creator, BestVisible, Located) cost
// O(replicas of the file), per-service ones (MinOn, FilesOn) O(files on
// the service), and nothing walks the whole registry.
type Registry struct {
	replicas map[*workflow.File][]replica
	held     map[Service]*holding
}

// replica is one copy of a file on one service. Stored by value: a replica
// is registered on every write completion, so a pointer here would be one
// heap allocation per I/O operation.
type replica struct {
	svc Service
	// creator is the compute node that wrote the replica; nil means the
	// replica pre-exists (initial placement) and is visible to everyone.
	creator *platform.Node
	// pos is the file's slot in held[svc].files.
	pos int
}

// holding is one service's side of the index: the files it holds, in slot
// order (insertion order, perturbed by swap-deletes), and their byte
// tally. The tally is maintained incrementally so the capacity-invariant
// audit (System.AuditCapacity) is cheap; it is updated in event order,
// hence deterministic.
type holding struct {
	files []*workflow.File
	bytes units.Bytes
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		replicas: map[*workflow.File][]replica{},
		held:     map[Service]*holding{},
	}
}

// replica returns f's replica on svc, or nil when svc holds none.
func (r *Registry) replica(f *workflow.File, svc Service) *replica {
	reps := r.replicas[f]
	for i := range reps {
		if reps[i].svc == svc {
			return &reps[i]
		}
	}
	return nil
}

// Add records that svc holds a replica of f with no particular creator
// (visible from every node).
func (r *Registry) Add(f *workflow.File, svc Service) {
	r.AddFrom(f, svc, nil)
}

// AddFrom records that svc holds a replica of f created by node.
func (r *Registry) AddFrom(f *workflow.File, svc Service, node *platform.Node) {
	if rep := r.replica(f, svc); rep != nil {
		rep.creator = node
		return
	}
	h := r.held[svc]
	if h == nil {
		h = &holding{}
		r.held[svc] = h
	}
	reps := r.replicas[f]
	i := len(reps)
	for i > 0 && svc.Name() < reps[i-1].svc.Name() {
		i--
	}
	r.replicas[f] = slices.Insert(reps, i, replica{svc: svc, creator: node, pos: len(h.files)})
	h.files = append(h.files, f)
	h.bytes += f.Size()
}

// Remove forgets the replica of f on svc. Removing an absent replica is a
// no-op.
func (r *Registry) Remove(f *workflow.File, svc Service) {
	reps := r.replicas[f]
	i := 0
	for i < len(reps) && reps[i].svc != svc {
		i++
	}
	if i == len(reps) {
		return
	}
	h := r.held[svc]
	last := len(h.files) - 1
	if pos := reps[i].pos; pos != last {
		moved := h.files[last]
		h.files[pos] = moved
		r.replica(moved, svc).pos = pos
	}
	h.files[last] = nil
	h.files = h.files[:last]
	h.bytes -= f.Size()
	r.replicas[f] = slices.Delete(reps, i, i+1)
}

// BytesOn returns the total size of the replicas svc currently holds.
func (r *Registry) BytesOn(svc Service) units.Bytes {
	if h := r.held[svc]; h != nil {
		return h.bytes
	}
	return 0
}

// FilesOn returns the files with a replica on svc, sorted by ID for
// deterministic teardown order (node-failure replica eviction).
func (r *Registry) FilesOn(svc Service) []*workflow.File {
	h := r.held[svc]
	if h == nil || len(h.files) == 0 {
		return nil
	}
	files := slices.Clone(h.files)
	slices.SortFunc(files, func(a, b *workflow.File) int { return strings.Compare(a.ID(), b.ID()) })
	return files
}

// MinOn returns the least file under less among those on svc that skip
// does not reject, or nil when none qualifies. less must be a strict total
// order, so the pick is independent of slot order. skip is consulted first
// for every file, so less only ever sees files skip accepts. MinOn itself
// does not allocate.
func (r *Registry) MinOn(svc Service, less func(a, b *workflow.File) bool, skip func(*workflow.File) bool) *workflow.File {
	h := r.held[svc]
	if h == nil {
		return nil
	}
	var best *workflow.File
	for _, f := range h.files {
		if !skip(f) && (best == nil || less(f, best)) {
			best = f
		}
	}
	return best
}

// Has reports whether svc holds a replica of f.
func (r *Registry) Has(f *workflow.File, svc Service) bool {
	return r.replica(f, svc) != nil
}

// Creator returns the node that created the replica of f on svc, or nil
// when the replica pre-exists or is absent.
func (r *Registry) Creator(f *workflow.File, svc Service) *platform.Node {
	if rep := r.replica(f, svc); rep != nil {
		return rep.creator
	}
	return nil
}

// Locations returns the services holding f, sorted by name for determinism.
func (r *Registry) Locations(f *workflow.File) []Service {
	reps := r.replicas[f]
	if len(reps) == 0 {
		return nil
	}
	svcs := make([]Service, len(reps))
	for i, rep := range reps {
		svcs[i] = rep.svc
	}
	return svcs
}

// Located reports whether any service holds f.
func (r *Registry) Located(f *workflow.File) bool {
	return len(r.replicas[f]) > 0
}

// Best picks the replica of f a task on node should read: a node-local BB
// on that node beats any other burst buffer, which beats the PFS. Ties are
// broken by service name. It returns an error when no replica exists.
func (r *Registry) Best(f *workflow.File, node *platform.Node) (Service, error) {
	return r.BestVisible(f, node, false)
}

// BestVisible is Best with optional enforcement of the private DataWarp
// visibility rule: when enforcePrivate is set, replicas on a private-mode
// shared burst buffer that were created by a *different* compute node are
// invisible, and the reader falls back to another replica (typically the
// PFS).
func (r *Registry) BestVisible(f *workflow.File, node *platform.Node, enforcePrivate bool) (Service, error) {
	var best Service
	bestRank := -1
	// Replicas are in service-name order, so keeping the first of the
	// highest rank breaks ties by name.
	for _, rep := range r.replicas[f] {
		svc := rep.svc
		if enforcePrivate && svc.Kind() == KindSharedBB && svc.Mode() == platform.BBPrivate {
			if c := rep.creator; c != nil && c != node {
				continue
			}
		}
		rank := 0
		switch {
		case svc.Kind() == KindNodeBB && svc.Local(node):
			rank = 3
		case svc.Kind() == KindNodeBB:
			rank = 2
		case svc.Kind() == KindSharedBB:
			rank = 2
		case svc.Kind() == KindPFS:
			rank = 1
		}
		if rank > bestRank {
			bestRank = rank
			best = svc
		}
	}
	if best == nil {
		return nil, fmt.Errorf("storage: file %q has no replica", f.ID())
	}
	return best, nil
}
