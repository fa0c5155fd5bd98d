package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/dpu"
)

// Scenario is one parsed timeline: the cluster to build, the
// environment schedule to play, and the outcome to demand.
type Scenario struct {
	Name       string
	Seed       int64
	Nodes      int
	Initial    string // initial protocol (canonical name)
	Transport  string // "sim" (default), "udp" or "tcp"
	Membership bool
	AutoEvict  bool
	Grace      time.Duration
	Tags       []string

	Env      Env
	FD       FDConfig
	Adaptive *Adaptive
	Workload Workload
	Phases   []Phase
	Drain    time.Duration
	Expect   Expect
}

// Env is a network shape; nil fields inherit the previous shape.
type Env struct {
	Latency   *time.Duration
	Jitter    *time.Duration
	Loss      *float64
	Bandwidth *float64
}

// FDConfig tunes the heartbeat failure detector (zero keeps defaults).
type FDConfig struct {
	Interval time.Duration
	Timeout  time.Duration
}

// Adaptive enables the adaptation engine for the run.
type Adaptive struct {
	Policy   string // "loss-sensitive" | "latency-sensitive"
	Interval time.Duration
	Confirm  int
	Cooldown time.Duration
	Advisory bool
}

// Workload is the broadcast load driven through the run.
type Workload struct {
	Rate    float64 // broadcasts per second per sender
	Senders int     // sender stacks 0..Senders-1 (0 = all founders)
	Payload int     // padded payload size in bytes
}

// Phase is one leg of the timeline.
type Phase struct {
	Name     string
	Duration time.Duration
	Env      *Env
	Flap     *Flap
	Actions  []Action
	Expect   PhaseExpect
}

// Flap toggles one link broken/healed every half Period for the whole
// phase.
type Flap struct {
	A, B   int
	Period time.Duration
}

// Action is one scheduled intervention inside a phase.
type Action struct {
	At     time.Duration // offset from the phase start
	Action string        // see actionNames
	Node   int           // add-node/evict/crash/restart/switch initiator (-1 = unset)
	To     string        // switch target protocol
	A, B   int           // partition/heal link (two-way or one-way)
	Loss   float64       // set-loss
	Rate   float64       // corrupt/reorder probability
	Delay  time.Duration // set-delay
	Jitter time.Duration // set-jitter
}

// PhaseExpect is checked when the phase's virtual time has elapsed.
type PhaseExpect struct {
	Protocol string // converged protocol ("" = none demanded)
}

// Expect is checked after the drain.
type Expect struct {
	FinalProtocol     string
	SwitchSequence    []string // exact order of completed switch targets
	MinSwitches       int      // -1 = unset
	MaxSwitches       int      // -1 = unset
	MinViews          int      // -1 = unset; committed view changes
	MinRejectedFrames int      // -1 = unset; checksum-rejected datagrams
}

var actionNames = map[string]bool{
	"add-node": true, "evict": true, "crash": true, "restart": true,
	"switch":    true,
	"partition": true, "heal": true,
	"partition-oneway": true, "heal-oneway": true,
	"corrupt": true, "reorder": true,
	"set-loss": true, "set-delay": true, "set-jitter": true,
}

// Parse decodes one scenario document. Unknown keys, malformed
// durations and out-of-range references are errors — a corpus file
// that parses is a corpus file that runs.
func Parse(data []byte) (*Scenario, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	m, ok := root.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: top level must be a map")
	}
	d := newDec(m, "")
	sc := &Scenario{
		Seed:  d.int64("seed", 1),
		Nodes: d.int("nodes", 3),
		Name:  d.str("name", ""),
	}
	sc.Initial = canonicalProtocol(d.str("initial", "ct"))
	sc.Transport = d.str("transport", "sim")
	sc.Membership = d.boolean("membership", false)
	sc.AutoEvict = d.boolean("auto_evict", false)
	sc.Grace = d.dur("grace", 0)
	sc.Drain = d.dur("drain", 500*time.Millisecond)
	sc.Tags = d.strList("tags")
	sc.Env = decodeEnv(d.sub("env"))
	if fd := d.sub("fd"); fd != nil {
		sc.FD = FDConfig{Interval: fd.dur("interval", 0), Timeout: fd.dur("timeout", 0)}
		fd.finish()
	}
	if a := d.sub("adaptive"); a != nil {
		sc.Adaptive = &Adaptive{
			Policy:   a.str("policy", ""),
			Interval: a.dur("interval", 25*time.Millisecond),
			Confirm:  a.int("confirm", 2),
			Cooldown: a.dur("cooldown", 300*time.Millisecond),
			Advisory: a.boolean("advisory", false),
		}
		a.finish()
	}
	if w := d.sub("workload"); w != nil {
		sc.Workload = Workload{
			Rate:    w.float("rate", 200),
			Senders: w.int("senders", 0),
			Payload: w.int("payload", 32),
		}
		w.finish()
	} else {
		sc.Workload = Workload{Rate: 200, Payload: 32}
	}
	for i, pv := range d.list("phases") {
		pm, ok := pv.(map[string]any)
		if !ok {
			d.errf("phases[%d]: must be a map", i)
			continue
		}
		pd := &dec{m: pm, used: map[string]bool{}, path: fmt.Sprintf("phases[%d].", i), errs: d.errs}
		ph := Phase{
			Name:     pd.str("name", fmt.Sprintf("phase-%d", i)),
			Duration: pd.dur("duration", 0),
		}
		if e := pd.sub("env"); e != nil {
			env := decodeEnv(e)
			ph.Env = &env
		}
		if f := pd.sub("flap"); f != nil {
			ph.Flap = &Flap{A: f.int("a", 0), B: f.int("b", 1), Period: f.dur("period", 100*time.Millisecond)}
			f.finish()
		}
		for j, av := range pd.list("actions") {
			am, ok := av.(map[string]any)
			if !ok {
				pd.errf("actions[%d]: must be a map", j)
				continue
			}
			ad := &dec{m: am, used: map[string]bool{}, path: fmt.Sprintf("phases[%d].actions[%d].", i, j), errs: d.errs}
			act := Action{
				At:     ad.dur("at", 0),
				Action: ad.str("action", ""),
				Node:   ad.int("node", -1),
				To:     canonicalProtocol(ad.str("to", "")),
				A:      ad.int("a", 0),
				B:      ad.int("b", 1),
				Loss:   ad.float("loss", 0),
				Rate:   ad.float("rate", 0),
				Delay:  ad.dur("delay", 0),
				Jitter: ad.dur("jitter", 0),
			}
			if !actionNames[act.Action] {
				ad.errf("unknown action %q", act.Action)
			}
			if act.Action == "switch" && act.To == "" {
				ad.errf("switch action needs `to:`")
			}
			if act.Action == "restart" && act.Node < 0 {
				ad.errf("restart action needs `node:`")
			}
			if (act.Action == "corrupt" || act.Action == "reorder") && (act.Rate < 0 || act.Rate > 1) {
				ad.errf("%s rate %v not in [0,1]", act.Action, act.Rate)
			}
			if act.At > ph.Duration {
				ad.errf("at %s exceeds the phase duration %s", act.At, ph.Duration)
			}
			ad.finish()
			ph.Actions = append(ph.Actions, act)
		}
		if ex := pd.sub("expect"); ex != nil {
			ph.Expect.Protocol = canonicalProtocol(ex.str("protocol", ""))
			ex.finish()
		}
		if ph.Duration <= 0 {
			pd.errf("duration must be positive")
		}
		pd.finish()
		sc.Phases = append(sc.Phases, ph)
	}
	sc.Expect = Expect{MinSwitches: -1, MaxSwitches: -1, MinViews: -1, MinRejectedFrames: -1}
	if ex := d.sub("expect"); ex != nil {
		sc.Expect.FinalProtocol = canonicalProtocol(ex.str("final_protocol", ""))
		for _, p := range ex.strList("switch_sequence") {
			sc.Expect.SwitchSequence = append(sc.Expect.SwitchSequence, canonicalProtocol(p))
		}
		sc.Expect.MinSwitches = ex.int("min_switches", -1)
		sc.Expect.MaxSwitches = ex.int("max_switches", -1)
		sc.Expect.MinViews = ex.int("min_views", -1)
		sc.Expect.MinRejectedFrames = ex.int("min_rejected_frames", -1)
		ex.finish()
	}
	d.finish()
	if err := d.err(); err != nil {
		return nil, err
	}
	return sc, sc.validate()
}

func (sc *Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: `name:` is required")
	}
	if sc.Nodes < 1 || sc.Nodes > 512 {
		return fmt.Errorf("scenario %s: nodes %d not in [1,512]", sc.Name, sc.Nodes)
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("scenario %s: at least one phase is required", sc.Name)
	}
	if !validProtocol(sc.Initial) {
		return fmt.Errorf("scenario %s: unknown initial protocol %q", sc.Name, sc.Initial)
	}
	switch sc.Transport {
	case "sim", "udp", "tcp":
	default:
		return fmt.Errorf("scenario %s: unknown transport %q (known: sim, udp, tcp)", sc.Name, sc.Transport)
	}
	if sc.Transport != "sim" && sc.Env.Bandwidth != nil {
		return fmt.Errorf("scenario %s: bandwidth shaping needs the simulated network (transport: sim)", sc.Name)
	}
	if sc.Adaptive != nil {
		switch sc.Adaptive.Policy {
		case "loss-sensitive", "latency-sensitive":
		default:
			return fmt.Errorf("scenario %s: unknown adaptive policy %q", sc.Name, sc.Adaptive.Policy)
		}
	}
	needsMembership := false
	for _, ph := range sc.Phases {
		for _, a := range ph.Actions {
			switch a.Action {
			case "add-node", "evict", "restart":
				needsMembership = true
			case "switch":
				if !validProtocol(a.To) {
					return fmt.Errorf("scenario %s: phase %s switches to unknown protocol %q", sc.Name, ph.Name, a.To)
				}
			}
		}
		if ph.Expect.Protocol != "" && !validProtocol(ph.Expect.Protocol) {
			return fmt.Errorf("scenario %s: phase %s expects unknown protocol %q", sc.Name, ph.Name, ph.Expect.Protocol)
		}
	}
	if needsMembership && !sc.Membership {
		return fmt.Errorf("scenario %s: add-node/evict/restart actions need `membership: true`", sc.Name)
	}
	if sc.Expect.FinalProtocol != "" && !validProtocol(sc.Expect.FinalProtocol) {
		return fmt.Errorf("scenario %s: unknown final protocol %q", sc.Name, sc.Expect.FinalProtocol)
	}
	for _, p := range sc.Expect.SwitchSequence {
		if !validProtocol(p) {
			return fmt.Errorf("scenario %s: unknown protocol %q in switch_sequence", sc.Name, p)
		}
	}
	return nil
}

// HasTag reports whether the scenario carries the tag.
func (sc *Scenario) HasTag(tag string) bool {
	for _, t := range sc.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// canonicalProtocol maps the DSL's short protocol aliases to the
// registered implementation names.
func canonicalProtocol(name string) string {
	switch name {
	case "ct":
		return dpu.ProtocolCT
	case "seq", "sequencer":
		return dpu.ProtocolSequencer
	case "token":
		return dpu.ProtocolToken
	default:
		return name
	}
}

func validProtocol(name string) bool {
	switch name {
	case dpu.ProtocolCT, dpu.ProtocolSequencer, dpu.ProtocolToken:
		return true
	}
	return false
}

func decodeEnv(d *dec) Env {
	var e Env
	if d == nil {
		return e
	}
	if v, ok := d.optDur("latency"); ok {
		e.Latency = &v
	}
	if v, ok := d.optDur("jitter"); ok {
		e.Jitter = &v
	}
	if v, ok := d.optFloat("loss"); ok {
		e.Loss = &v
	}
	if v, ok := d.optFloat("bandwidth"); ok {
		e.Bandwidth = &v
	}
	d.finish()
	return e
}

// dec is a strict map decoder: every key must be consumed, every value
// must type-check, and all failures accumulate into one error. Child
// decoders (sub) share the root's error sink, so one err() call at the
// root reports everything.
type dec struct {
	m    map[string]any
	used map[string]bool
	path string
	errs *[]string
}

func newDec(m map[string]any, path string) *dec {
	return &dec{m: m, used: map[string]bool{}, path: path, errs: new([]string)}
}

func (d *dec) errf(format string, args ...any) {
	*d.errs = append(*d.errs, d.path+fmt.Sprintf(format, args...))
}

func (d *dec) take(key string) (string, bool) {
	v, ok := d.m[key]
	if !ok {
		return "", false
	}
	d.used[key] = true
	s, ok := v.(string)
	if !ok {
		d.errf("%s: expected a scalar", key)
		return "", false
	}
	return s, true
}

func (d *dec) str(key, def string) string {
	if s, ok := d.take(key); ok {
		return s
	}
	return def
}

func (d *dec) int(key string, def int) int {
	s, ok := d.take(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		d.errf("%s: %q is not an integer", key, s)
		return def
	}
	return n
}

func (d *dec) int64(key string, def int64) int64 {
	s, ok := d.take(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		d.errf("%s: %q is not an integer", key, s)
		return def
	}
	return n
}

func (d *dec) float(key string, def float64) float64 {
	v, ok := d.optFloat(key)
	if !ok {
		return def
	}
	return v
}

func (d *dec) optFloat(key string) (float64, bool) {
	s, ok := d.take(key)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		d.errf("%s: %q is not a number", key, s)
		return 0, false
	}
	return f, true
}

func (d *dec) boolean(key string, def bool) bool {
	s, ok := d.take(key)
	if !ok {
		return def
	}
	switch s {
	case "true", "yes", "on":
		return true
	case "false", "no", "off":
		return false
	}
	d.errf("%s: %q is not a boolean", key, s)
	return def
}

func (d *dec) dur(key string, def time.Duration) time.Duration {
	v, ok := d.optDur(key)
	if !ok {
		return def
	}
	return v
}

func (d *dec) optDur(key string) (time.Duration, bool) {
	s, ok := d.take(key)
	if !ok {
		return 0, false
	}
	if s == "0" {
		return 0, true
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		d.errf("%s: %q is not a duration (use units: 100ms, 2s, 50us)", key, s)
		return 0, false
	}
	return v, true
}

func (d *dec) strList(key string) []string {
	v, ok := d.m[key]
	if !ok {
		return nil
	}
	d.used[key] = true
	l, ok := v.([]any)
	if !ok {
		d.errf("%s: expected a list", key)
		return nil
	}
	out := make([]string, 0, len(l))
	for i, item := range l {
		s, ok := item.(string)
		if !ok {
			d.errf("%s[%d]: expected a scalar", key, i)
			continue
		}
		out = append(out, s)
	}
	return out
}

func (d *dec) list(key string) []any {
	v, ok := d.m[key]
	if !ok {
		return nil
	}
	d.used[key] = true
	l, ok := v.([]any)
	if !ok {
		d.errf("%s: expected a list", key)
		return nil
	}
	return l
}

func (d *dec) sub(key string) *dec {
	v, ok := d.m[key]
	if !ok {
		return nil
	}
	d.used[key] = true
	m, ok := v.(map[string]any)
	if !ok {
		d.errf("%s: expected a map", key)
		return nil
	}
	return &dec{m: m, used: map[string]bool{}, path: d.path + key + ".", errs: d.errs}
}

// finish flags unconsumed keys. Sub-decoder errors propagate through
// the parent's errs (the caller appends them).
func (d *dec) finish() {
	keys := make([]string, 0, len(d.m))
	for k := range d.m {
		if !d.used[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.errf("unknown key %q", k)
	}
}

func (d *dec) err() error {
	if len(*d.errs) == 0 {
		return nil
	}
	return fmt.Errorf("scenario: %s", strings.Join(*d.errs, "; "))
}
