package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Flight sampling reasons, in the order the policy checks them. Every
// recorded entry carries the reason it was kept, so a dump separates "kept
// because something went wrong" from "kept by the background sample".
const (
	FlightWhyError   = "error"   // read returned an error or a non-ok outcome
	FlightWhyFault   = "fault"   // frames dropped, samples scrubbed, or faults injected
	FlightWhySlow    = "slow"    // wall time above the slow-read threshold
	FlightWhySampled = "sampled" // healthy read kept by the 1-in-N background sample
)

// JSONFloat is a float64 whose JSON rendering maps NaN/±Inf to null, so a
// flight entry for an undetected read (SNR -Inf) still serializes.
type JSONFloat float64

// MarshalJSON renders non-finite values as null.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return []byte(strconv.FormatFloat(v, 'g', -1, 64)), nil
}

// UnmarshalJSON accepts numbers and maps null back to NaN.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = JSONFloat(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// FlightEntry is one read's forensic record in the flight recorder: enough
// to reconstruct *why this specific read* was slow, partial, or undecodable
// after the fact — outcome, seed, config fingerprint, degradation counters,
// injected fault kinds, quality numbers, and the full span tree view.
type FlightEntry struct {
	// Seq is the recorder-assigned sequence number (monotonic across the
	// process; the ring keeps the newest entries).
	Seq int64 `json:"seq"`
	// Time is the wall-clock record time (RFC3339Nano, UTC). It is stamped
	// by the recorder, never read by the pipeline, so recording stays
	// byte-deterministic for the read itself.
	Time string `json:"time"`
	// Why is the sampling reason (FlightWhy*).
	Why string `json:"why"`
	// Outcome classifies the read: ok, partial, undecodable, no_tag, error.
	Outcome string `json:"outcome"`
	// Seed and ConfigFP identify the read: equal (seed, fingerprint) pairs
	// reproduce the read byte-identically.
	Seed     int64  `json:"seed"`
	ConfigFP string `json:"config_fp"`
	// Workers is the resolved frame-loop worker count.
	Workers int `json:"workers"`
	// SNRdB and BER are the decode quality (null when undetected).
	SNRdB JSONFloat `json:"snr_db"`
	BER   JSONFloat `json:"ber"`
	// WallMs is the end-to-end read time.
	WallMs float64 `json:"wall_ms"`
	// FramesCompleted/FramesDropped/SamplesScrubbed are the degradation
	// counters of the read.
	FramesCompleted int `json:"frames_completed"`
	FramesDropped   int `json:"frames_dropped"`
	SamplesScrubbed int `json:"samples_scrubbed"`
	// FaultKinds lists the injected fault kinds whose schedule fired at
	// least once during the read (empty without injection).
	FaultKinds []string `json:"fault_kinds,omitempty"`
	// Err is the read's error string (empty on success).
	Err string `json:"err,omitempty"`
	// Spans is the read's span tree view (filled only for recorded entries).
	Spans *SpanView `json:"spans,omitempty"`
}

// Flight is a fixed-size lock-free ring of per-read flight entries. Writers
// claim a slot with one atomic add and publish the entry with one atomic
// pointer store; readers snapshot the slots without blocking writers. The
// sampling policy always keeps reads that erred, degraded, or ran slow, and
// keeps a deterministic 1-in-N background sample of healthy reads (decided
// by a SplitMix64 hash of the offer counter — the recorder draws no
// randomness that could perturb the simulation).
type Flight struct {
	slots   []atomic.Pointer[FlightEntry]
	seq     atomic.Int64 // recorded entries (ring head)
	offers  atomic.Int64 // reads offered to the policy
	enabled atomic.Bool
	every   atomic.Int64 // background sample period (1 records everything)
	meanNS  atomic.Int64 // EWMA of healthy read wall time, for the slow test
}

// DefaultFlightSize is the ring capacity of DefaultFlight.
const DefaultFlightSize = 256

// flightSampleEvery is the default background sampling period for healthy
// reads: 1 in 8.
const flightSampleEvery = 8

// DefaultFlight is the process-wide flight recorder, wired into sim.RunContext and
// served at /debug/flight.
var DefaultFlight = NewFlight(DefaultFlightSize)

// Flight self-metrics on the Default registry, labeled by sampling reason.
var (
	mFlightRecorded = Default.CounterVec("obs_flight_recorded_total",
		"flight-recorder entries kept, by sampling reason", "why")
	mFlightSkipped = Default.Counter("obs_flight_skipped_total",
		"healthy reads the flight recorder sampled out")
)

// NewFlight returns a recorder with the given ring capacity.
func NewFlight(size int) *Flight {
	if size < 1 {
		size = DefaultFlightSize
	}
	f := &Flight{slots: make([]atomic.Pointer[FlightEntry], size)}
	f.enabled.Store(true)
	f.every.Store(flightSampleEvery)
	return f
}

// SetEnabled switches recording on or off and returns the previous state —
// the obs-overhead benchmark measures with recording off.
func (f *Flight) SetEnabled(on bool) bool { return f.enabled.Swap(on) }

// SetSampleEvery sets the background sampling period for healthy reads
// (n <= 1 records every read) and returns the previous period. Error, fault,
// and slow reads are always recorded regardless.
func (f *Flight) SetSampleEvery(n int) int {
	if n < 1 {
		n = 1
	}
	return int(f.every.Swap(int64(n)))
}

// splitmix64 is the finalizer used for the deterministic background sample.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Offer runs the sampling policy over e and records it when sampled,
// returning the assigned sequence number (-1 when skipped). The fill
// callback, when non-nil, runs only for entries that will be recorded — put
// the expensive captures there (the span tree view), so sampled-out reads
// pay only for the policy check.
//
// Policy, in order: always record reads whose Outcome is not "ok" or that
// carry an error; always record degraded or fault-injected reads (drops,
// scrubs, fault kinds); always record slow reads (wall above 2x the running
// mean of healthy reads); keep a 1-in-N background sample of the rest.
func (f *Flight) Offer(e *FlightEntry, fill func(*FlightEntry)) (int64, bool) {
	if f == nil || !f.enabled.Load() {
		return -1, false
	}
	n := f.offers.Add(1)
	wallNS := int64(e.WallMs * 1e6)
	why := ""
	switch {
	case e.Err != "" || (e.Outcome != "" && e.Outcome != "ok"):
		why = FlightWhyError
	case e.FramesDropped > 0 || e.SamplesScrubbed > 0 || len(e.FaultKinds) > 0:
		why = FlightWhyFault
	default:
		mean := f.meanNS.Load()
		if mean > 0 && wallNS > 2*mean {
			why = FlightWhySlow
		} else if every := f.every.Load(); every <= 1 || splitmix64(uint64(n))%uint64(every) == 0 {
			why = FlightWhySampled
		}
		// Healthy reads update the slow-read threshold (EWMA, alpha 1/8)
		// whether or not they were sampled.
		if mean == 0 {
			f.meanNS.CompareAndSwap(0, wallNS)
		} else {
			f.meanNS.Store(mean + (wallNS-mean)/8)
		}
	}
	if why == "" {
		mFlightSkipped.Inc()
		return -1, false
	}
	if fill != nil {
		fill(e)
	}
	e.Why = why
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	seq := f.seq.Add(1) - 1
	e.Seq = seq
	f.slots[seq%int64(len(f.slots))].Store(e)
	mFlightRecorded.With(why).Inc()
	return seq, true
}

// Snapshot returns the resident entries, newest first. Entries are shared
// with the ring — treat them as immutable.
func (f *Flight) Snapshot() []*FlightEntry {
	out := make([]*FlightEntry, 0, len(f.slots))
	for i := range f.slots {
		if e := f.slots[i].Load(); e != nil {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Find returns the newest entry with the given seed, or nil — the chaos
// suite's lookup path.
func (f *Flight) Find(seed int64) *FlightEntry {
	var best *FlightEntry
	for i := range f.slots {
		if e := f.slots[i].Load(); e != nil && e.Seed == seed {
			if best == nil || e.Seq > best.Seq {
				best = e
			}
		}
	}
	return best
}

// FlightDump is the JSON document served at /debug/flight and written by
// rosbench -flight.
type FlightDump struct {
	Capacity int            `json:"capacity"`
	Recorded int64          `json:"recorded"`
	Offered  int64          `json:"offered"`
	Entries  []*FlightEntry `json:"entries"`
}

// Dump snapshots the ring into a serializable document.
func (f *Flight) Dump() FlightDump {
	return FlightDump{
		Capacity: len(f.slots),
		Recorded: f.seq.Load(),
		Offered:  f.offers.Load(),
		Entries:  f.Snapshot(),
	}
}

// WriteJSON writes the ring snapshot as indented JSON, newest entry first.
func (f *Flight) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f.Dump())
}

// Fingerprint hashes a config rendering into the short hex id flight entries
// carry: equal configurations (and only equal renderings) share an id.
func Fingerprint(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		io.WriteString(h, p)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
