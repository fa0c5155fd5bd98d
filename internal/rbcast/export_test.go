package rbcast

// MaxFrameBytes is the coalescing cap, above which data travels by
// reference.
const MaxFrameBytes = maxFrameBytes

// SetRefMin moves the by-reference threshold of one module; tests force
// the coalescing path with it. Executor-only.
func (m *Module) SetRefMin(n int) { m.refMin = n }
