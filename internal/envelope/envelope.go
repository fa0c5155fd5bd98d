// Package envelope frames payloads of the public atomic-broadcast
// service so independent users (the application, the group membership
// module, the consensus-replacement extension) can share one totally
// ordered stream without seeing each other's messages.
package envelope

import "errors"

// Kind identifies the owner of a broadcast payload.
type Kind byte

// Reserved payload kinds.
const (
	// KindApp is application data (the dpu façade).
	KindApp Kind = 0
	// KindGM is reserved for group membership traffic. Since the
	// view-driven membership refactor GM operations travel as a core
	// wire tag (tagView) instead of enveloped app payloads; the value
	// stays reserved so old captures decode unambiguously.
	KindGM Kind = 1
	// KindConsRepl is the consensus-replacement extension.
	KindConsRepl Kind = 2
	// KindBench is reserved: it marked the probe traffic of a figure
	// harness that has since been removed; the value stays reserved so
	// old captures decode unambiguously.
	KindBench Kind = 3
	// KindAppPaced is reserved: it marked window-paced application data
	// while an unpaced broadcast path existed beside Node.Broadcast. All
	// application data is KindApp now; the value stays reserved so old
	// captures decode unambiguously.
	KindAppPaced Kind = 4
)

// ErrEmpty is returned when unwrapping an empty payload.
var ErrEmpty = errors.New("envelope: empty payload")

// Wrap prefixes body with the kind tag.
func Wrap(k Kind, body []byte) []byte {
	out := make([]byte, 0, len(body)+1)
	out = append(out, byte(k))
	return append(out, body...)
}

// Unwrap splits a wrapped payload into its kind and body.
func Unwrap(data []byte) (Kind, []byte, error) {
	if len(data) < 1 {
		return 0, nil, ErrEmpty
	}
	return Kind(data[0]), data[1:], nil
}
