package omx

import (
	"omxsim/internal/policy"
	"omxsim/internal/sim"
)

// Config selects the pinning model and protocol parameters of an endpoint.
// The four throughput curves of the paper's Figures 6 and 7 are spanned by
// (Policy, CacheEnabled):
//
//	Figure 6 "Pin once per Communication": pin-each-comm, cache off
//	Figure 6 "Permanent Pinning":          permanent,     cache on
//	Figure 7 "Regular Pinning":            pin-each-comm, cache off
//	Figure 7 "Overlapped Pinning":         overlapped,    cache off
//	Figure 7 "Pinning Cache":              on-demand,     cache on
//	Figure 7 "Overlapped Pinning Cache":   overlapped,    cache on
type Config struct {
	// Policy is the pinning strategy: any backend registered with
	// internal/policy, including out-of-tree ones. Nil means
	// policy.PinEachComm.
	Policy policy.Policy
	// CacheEnabled turns on the user-space region cache (paper §3.2).
	// Backends whose RequiresCache is true (pin-ahead) force it on.
	CacheEnabled bool
	// CacheByteCapacity bounds the total bytes covered by cached
	// declarations (0 = unlimited). Under pressure the cache undeclares
	// idle entries per CacheEviction until it fits.
	CacheByteCapacity int
	// CacheEviction names the cache eviction policy: "lru" (default) or
	// "size" (largest idle entry first). See core.EvictorNames.
	CacheEviction string
	// UseIOAT offloads receive copies of large-message data to the node's
	// I/OAT DMA engine (paper §2.2).
	UseIOAT bool
	// EagerThreshold is the largest message sent eagerly; bigger ones use
	// rendezvous. The MXoE spec fixes 32 KiB (paper §2.2).
	EagerThreshold int
	// PullWindow is how many pull blocks may be outstanding.
	PullWindow int
	// RetransmitTimeout is the coarse fallback for lost control messages
	// (rndv, eager, notify). The paper quotes 1 s; experiments here default
	// lower to keep simulated runs short while preserving the two-level
	// (fast optimistic / slow fallback) structure.
	RetransmitTimeout sim.Duration
	// PeerDeadTimeout bounds how long a request keeps retrying against a
	// silent peer before aborting with ErrPeerDead. Retry timers back off
	// exponentially once no progress is seen, and a request whose peer has
	// been quiet this long is declared dead. Defaults to
	// 16 × RetransmitTimeout; it must comfortably exceed the retry cadence
	// so lossy-but-alive links recover rather than abort.
	PeerDeadTimeout sim.Duration
	// PinnedPageLimit caps driver-pinned pages per endpoint (0 = unlimited).
	PinnedPageLimit int
	// PinChunkPages is the pin work granularity on the core (0 = driver
	// default of 32 pages). Bottom halves interleave between chunks.
	PinChunkPages int
	// AdaptiveOverlap enables the per-request policy selection the paper's
	// §5 proposes: "blocking operations benefit more from overlapped
	// pinning while overlap-aware applications may prefer a simple model
	// with lower overhead". With it set (and Policy == Overlapped),
	// blocking requests overlap their pinning with the transfer while
	// non-blocking requests pin synchronously before initiating.
	AdaptiveOverlap bool
	// SyncPrefixPages delays the initiating message (rendezvous on the
	// sender, the first pull requests on the receiver) until this many
	// pages of the region are pinned, under the Overlapped policy — the
	// mitigation the paper evaluates in §4.3 ("pinning a few pages
	// synchronously anyway before sending the initiating message to reduce
	// the chance of getting some overlap-misses"). One pull block (8 pages)
	// suffices: because pin work executes in submission order, the prefix
	// wait also serializes a message's rendezvous behind earlier pins, so
	// pull requests never race a pin that has not effectively started.
	// Set negative to disable (pure drop model).
	SyncPrefixPages int
}

// Protocol parameters that no configuration varies.
const (
	// pullBlockSize is the granularity of receiver pull requests.
	pullBlockSize = 32 * 1024
	// reRequestDelay is the pull-block requeue timeout: a requested block
	// with missing fragments and no arrivals at all for this long is
	// re-requested. It sits between service jitter (hundreds of µs under
	// load) and the coarse RetransmitTimeout.
	reRequestDelay = 2 * sim.Millisecond
	// gapReReqDelay rate-limits the gap-driven optimistic re-request — the
	// "requested again optimistically, instead of waiting for the
	// retransmission timeout (1s)" of paper footnote 4: when fragments with
	// higher offsets arrive while an older block still has holes, the hole
	// is re-requested at most this often.
	gapReReqDelay = 100 * sim.Microsecond
	// crossGapDelay is the evidence threshold for cross-message re-request:
	// a stalled pull is re-requested when other traffic from the same node
	// flows but this message saw nothing for this long. It must exceed the
	// receive-copy backlog jitter (several hundred µs at full window) or it
	// false-fires and snowballs duplicate traffic.
	crossGapDelay = sim.Millisecond
	// syscallCost is the user/kernel crossing charged per Isend/Irecv.
	syscallCost = 300 * sim.Nanosecond
	// bhFragCost is the bottom-half protocol cost per received frame,
	// excluding data copies.
	bhFragCost = 250 * sim.Nanosecond
)

// DefaultConfig returns the standard Open-MX configuration with the given
// pinning policy and cache setting.
func DefaultConfig(pol policy.Policy, cacheEnabled bool) Config {
	return Config{
		Policy:            pol,
		CacheEnabled:      cacheEnabled,
		EagerThreshold:    32 * 1024,
		PullWindow:        8,
		RetransmitTimeout: 20 * sim.Millisecond,
		SyncPrefixPages:   8, // one pull block (32 KiB)
	}
}

// PolicyLabel names the pinning strategy for reports and -policy
// filters.
func (c Config) PolicyLabel() string {
	if c.Policy == nil {
		return policy.PinEachComm.Name()
	}
	return c.Policy.Name()
}

// withDefaults fills zero fields, a nil Policy included.
func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = policy.PinEachComm
	}
	if c.Policy.RequiresCache() {
		c.CacheEnabled = true
	}
	if c.CacheEviction == "" {
		c.CacheEviction = "lru"
	}
	d := DefaultConfig(c.Policy, c.CacheEnabled)
	if c.EagerThreshold == 0 {
		c.EagerThreshold = d.EagerThreshold
	}
	if c.PullWindow == 0 {
		c.PullWindow = d.PullWindow
	}
	if c.RetransmitTimeout == 0 {
		c.RetransmitTimeout = d.RetransmitTimeout
	}
	if c.PeerDeadTimeout == 0 {
		// Scale from the effective retransmit timeout so short-timeout
		// test configurations keep the two bounds proportioned.
		c.PeerDeadTimeout = 16 * c.RetransmitTimeout
	}
	if c.SyncPrefixPages == 0 {
		c.SyncPrefixPages = d.SyncPrefixPages
	}
	if c.SyncPrefixPages < 0 {
		c.SyncPrefixPages = 0
	}
	return c
}
