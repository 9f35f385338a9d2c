// Package fleet fans one design-space sweep, or one scenario stream,
// across many evaluation backends — in-process Sessions, remote
// actuaryd daemons, or a mix — and merges the per-shard answers back
// into exactly the single-process answer. Coordinator splits a
// sweep-best question into candidate-space shards (see
// actuary.Request's ShardIndex/ShardCount) and merges top-K, Pareto
// front, summary and pruning statistics as shards drain;
// StreamCoordinator stripes a scenario stream and interleaves the
// shard streams back into request order. Transport failures move a
// shard to another backend; deterministic evaluation failures abort
// the run, since every backend would reproduce them. A run can be
// made durable: the shard is the checkpoint unit
// (CoordinatorCheckpoint, FleetStreamCheckpoint).
//
// The scheduler scales from a fixed list to an elastic, health-aware
// pool:
//
//   - a Registry backends can join and leave while a sweep is running,
//   - a Monitor that probes each backend's health and load and feeds
//     mark-down/mark-up decisions and scheduling weights,
//   - a scheduler that over-partitions the sweep, steals work from
//     slow or dead backends, and speculatively re-executes the last
//     in-flight shards so one straggler cannot hold the run hostage,
//   - a Resizer that grows and shrinks an in-process Session's worker
//     pool from its own back-pressure metrics.
//
// Without a monitor and with WithSpeculation(false) and one shard per
// backend (WithOverPartition(1)), a shard runs on one backend at a
// time and moves only after a completed transport failure; a list
// with no live backend fails with ErrTransport instead of parking.
// cmd/explore -backends runs that configuration, -fleet the full one.
//
// Every shard is merged exactly once (speculative duplicates are
// discarded at the scheduler, first result wins), so the final answer
// stays byte-identical to the single-process sweep no matter how many
// backends raced, died, or joined late. Byte-identity assumes backends
// computing identical floats (same Go version and CPU architecture);
// across a heterogeneous fleet, last-ulp cost differences can resolve
// an exact tie differently.
//
//	reg := fleet.NewRegistry()
//	reg.Add("local", client.Local(session))
//	reg.Add("remote", remote)
//	coord, err := fleet.New(reg)
//	best, err := coord.SweepBest(ctx, actuary.Request{
//	    Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5,
//	})
package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"chipletactuary/client"
)

// member is one registered backend. The id is unique for the life of
// the registry — a backend that leaves and rejoins under the same name
// gets a fresh id, so scheduler state about the dead incarnation never
// bleeds into the new one.
type member struct {
	id      int
	name    string
	backend client.Backend
	removed atomic.Bool
}

// Registry is the membership list of a fleet: named backends that can
// be added and removed at any time, including while a sweep is in
// flight. A Coordinator subscribes to changes and admits late joiners
// mid-run. Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	members []*member
	nextID  int
	subs    map[int]chan struct{}
	nextSub int
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{subs: make(map[int]chan struct{})}
}

// Add registers a backend under a name unique among live members.
// Adding during a sweep admits the backend into that sweep.
func (r *Registry) Add(name string, b client.Backend) error {
	if name == "" {
		return fmt.Errorf("fleet: backend needs a name")
	}
	if b == nil {
		return fmt.Errorf("fleet: backend %q is nil", name)
	}
	r.mu.Lock()
	for _, m := range r.members {
		if !m.removed.Load() && m.name == name {
			r.mu.Unlock()
			return fmt.Errorf("fleet: backend %q already registered", name)
		}
	}
	r.members = append(r.members, &member{id: r.nextID, name: name, backend: b})
	r.nextID++
	r.mu.Unlock()
	r.notify()
	return nil
}

// Remove withdraws a backend from the fleet. In-flight shard
// executions on it are left to finish (their results still count);
// it is never handed new work. Reports whether the name was present.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	var gone *member
	for _, m := range r.members {
		if !m.removed.Load() && m.name == name {
			gone = m
			break
		}
	}
	r.mu.Unlock()
	if gone == nil {
		return false
	}
	gone.removed.Store(true)
	r.notify()
	return true
}

// Len reports the number of live members.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.members {
		if !m.removed.Load() {
			n++
		}
	}
	return n
}

// Names lists the live members, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for _, m := range r.members {
		if !m.removed.Load() {
			names = append(names, m.name)
		}
	}
	sort.Strings(names)
	return names
}

// live snapshots the live members in registration order.
func (r *Registry) live() []*member {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		if !m.removed.Load() {
			out = append(out, m)
		}
	}
	return out
}

// liveIDs snapshots the ids of the live members.
func (r *Registry) liveIDs() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []int
	for _, m := range r.members {
		if !m.removed.Load() {
			ids = append(ids, m.id)
		}
	}
	return ids
}

// memberName resolves an id to its name, live or removed.
func (r *Registry) memberName(id int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.members {
		if m.id == id {
			return m.name
		}
	}
	return fmt.Sprintf("backend#%d", id)
}

// subscribe returns a channel that receives a notification (capacity
// one, coalescing) after every membership change, plus a cancel func.
func (r *Registry) subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	r.mu.Lock()
	id := r.nextSub
	r.nextSub++
	r.subs[id] = ch
	r.mu.Unlock()
	return ch, func() {
		r.mu.Lock()
		delete(r.subs, id)
		r.mu.Unlock()
	}
}

// notify pokes every subscriber without blocking: a full channel
// already carries a pending notification, which covers this change.
func (r *Registry) notify() {
	r.mu.Lock()
	subs := make([]chan struct{}, 0, len(r.subs))
	for _, ch := range r.subs {
		subs = append(subs, ch)
	}
	r.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}
