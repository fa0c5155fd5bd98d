// Package abcast provides three implementations of the atomic broadcast
// service specified in Section 5.1 of the paper (ABcast/Adeliver with
// validity, uniform agreement, uniform integrity and uniform total
// order):
//
//   - abcast/ct: the Chandra–Toueg reduction to consensus, as in the
//     paper's measured stack (Figure 4). Uniform, tolerates f < n/2
//     crashes.
//   - abcast/seq: fixed sequencer. Total order with a central ordering
//     point; guarantees hold in crash-free runs (the sequencer is a
//     single point of failure), documented as such.
//   - abcast/token: moving sequencer (privilege-based). The token
//     circulates; the holder orders its pending messages. Crash-free
//     guarantee, documented as such.
//
// All implementations provide the same inner service ServiceImpl and are
// constructed with a replacement epoch (Algorithm 1's seqNumber): every
// network channel and consensus group is scoped by the epoch, so the old
// and the new protocol instance never observe each other's traffic while
// both are alive during a dynamic update.
package abcast

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/kernel"
)

// ServiceImpl is the inner atomic-broadcast service the replacement
// layer binds implementations to. Applications normally use the public
// "abcast" service provided by the replacement module; binding an
// implementation directly to a service of choice is how the "without
// replacement layer" baseline is assembled.
const ServiceImpl kernel.ServiceID = "abcast/impl"

// Protocol names of the bundled implementations.
const (
	ProtocolCT    = "abcast/ct"
	ProtocolSeq   = "abcast/seq"
	ProtocolToken = "abcast/token"
)

// Broadcast requests an atomic broadcast of Data to the whole group. An
// implementation may keep Data and hand it on by reference (abcast/ct
// sends a payload over 48 KiB as rp2p.Send.Body), so the caller must not
// mutate it afterwards, nor take it from a pool.
type Broadcast struct {
	Data []byte
}

// Deliver is indicated on the implementation's service for every
// message, in the same total order on every stack.
type Deliver struct {
	Origin kernel.Addr
	Data   []byte
}

// msgID identifies an atomic-broadcast message by its origin and the
// origin-local sequence number.
type msgID struct {
	origin kernel.Addr
	seq    uint64
}

func (id msgID) less(o msgID) bool {
	if id.origin != o.origin {
		return id.origin < o.origin
	}
	return id.seq < o.seq
}

// Impl describes an atomic-broadcast implementation: its substrate
// service requirements and an epoch-scoped constructor. This is the
// protocol-level registry entry the DPU layer instantiates during a
// replacement (the paper's create_module uses Requires for recursion).
type Impl struct {
	// Name is the protocol name, e.g. "abcast/ct".
	Name string
	// Requires lists substrate services that must be bound before the
	// module starts.
	Requires []kernel.ServiceID
	// New constructs the module for the given stack and epoch. The
	// module is not yet added, bound or started.
	New func(st *kernel.Stack, epoch uint64) kernel.Module
}

// Registry maps implementation names to Impl descriptors.
type Registry struct {
	mu    sync.RWMutex
	impls map[string]Impl
}

// NewRegistry returns an empty implementation registry.
func NewRegistry() *Registry {
	return &Registry{impls: make(map[string]Impl)}
}

// Register adds an implementation; duplicate names are an error.
func (r *Registry) Register(im Impl) error {
	if im.Name == "" || im.New == nil {
		return fmt.Errorf("abcast: invalid implementation descriptor")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.impls[im.Name]; dup {
		return fmt.Errorf("abcast: implementation %q already registered", im.Name)
	}
	r.impls[im.Name] = im
	return nil
}

// MustRegister is Register that panics on error.
func (r *Registry) MustRegister(im Impl) {
	if err := r.Register(im); err != nil {
		panic(err)
	}
}

// Lookup resolves an implementation by name.
func (r *Registry) Lookup(name string) (Impl, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	im, ok := r.impls[name]
	return im, ok
}

// Names returns the sorted registered implementation names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.impls))
	for n := range r.impls {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// StandardRegistry returns a registry with the three bundled
// implementations under their default configurations.
func StandardRegistry() *Registry {
	r := NewRegistry()
	r.MustRegister(CTImpl())
	r.MustRegister(SequencerImpl())
	r.MustRegister(TokenImpl(TokenConfig{}))
	return r
}

// sortIDs returns the ids in deterministic (origin, seq) order.
func sortIDs(ids []msgID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i].less(ids[j]) })
}
