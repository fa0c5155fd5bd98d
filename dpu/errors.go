package dpu

import "errors"

// Sentinel errors returned (possibly wrapped — test with errors.Is) by
// Cluster and Node operations.
var (
	// ErrOutOfRange reports a stack index outside [0, Cluster.N()).
	ErrOutOfRange = errors.New("dpu: stack index out of range")
	// ErrRemoteStack reports an operation on a stack that this process
	// does not host (see WithLocalStacks).
	ErrRemoteStack = errors.New("dpu: stack is not hosted by this process")
	// ErrNotRunning reports an operation on a stack that has crashed or
	// been closed.
	ErrNotRunning = errors.New("dpu: stack is not running")
	// ErrUnknownProtocol reports a ChangeProtocol name that no bundled
	// or registered implementation matches. It is returned immediately,
	// before anything is broadcast to the group.
	ErrUnknownProtocol = errors.New("dpu: unknown protocol")
	// ErrUnsupported reports an operation the cluster's configuration
	// cannot honor — e.g. fault injection over an external transport
	// that is not wrapped in transport.Faulty.
	ErrUnsupported = errors.New("dpu: operation not supported by this cluster configuration")
	// ErrNoMembership reports a membership operation (Leave, Evict,
	// AddNode, AddNodeAsync, ServeJoin) on a cluster built without the
	// group-membership module. Enable it with WithMembership.
	ErrNoMembership = errors.New("dpu: membership module not enabled")
	// ErrNoAdaptive reports an adaptation operation (Node.Advise,
	// Subscribe with Advice) on a cluster built without the adaptation
	// engine. Enable it with WithAdaptive.
	ErrNoAdaptive = errors.New("dpu: adaptive engine not enabled")
	// ErrClosed reports an operation on a closed cluster.
	ErrClosed = errors.New("dpu: cluster closed")
)
