// Package memsys models the simulated memory system: a paged,
// word-addressable memory image holding architectural values, and a
// configurable N-level cache hierarchy with MESI-style invalidation that
// supplies access latencies.
//
// # Timing-directed split
//
// The simulator is timing-directed: values always live in the Image, and
// a store's value becomes visible to other cores only when the owning
// core's store buffer completes it (see internal/cpu). The cache
// hierarchy decides *when* that happens and what each access costs,
// reproducing the latency structure of the paper's SESC configuration
// (Table III). Because no data flows through the caches, the Hierarchy is
// purely tag, LRU, and directory state.
//
// # Paged image
//
// The Image's size is its address space, not an allocation: it keeps one
// directory slot per 4 KiB page and allocates a page on the first
// non-zero store into it. Absent pages read 0, so loads (wrong-path ones
// included) never allocate. Concurrent stores to distinct words are
// safe, first touches of one page included (see Image).
//
// # Hierarchy shape
//
// Config is an ordered list of cache levels, innermost first. Each level
// is private (one bank per core) or shared (a single bank); private
// levels must form a prefix and shared levels a suffix, and the outermost
// level — always shared — holds the coherence directory (sharer mask and
// owner per line). The hierarchy is inclusive: a fill installs the line
// at every level between the supply point and the requesting core, and an
// eviction back-invalidates all inner copies, so the single directory at
// the last level can stand in for per-level coherence state. The default
// two-level configuration (private 32 KB L1, shared 1 MB L2+directory)
// reproduces the paper's Table III machine exactly; DepthConfig scales
// the same shape to three and four levels for the fig-depth sweep.
//
// # Level addressing and statistics
//
// Levels are named L1..LN, innermost first. Every level keeps a per-core
// hit/miss pair (CoreStats.Level, registered with the machine's stats
// registry as coreN.mem.l<k>_hits / l<k>_misses), and the machine adds
// cross-core sums under machine.mem.l<k>_*; see RegisterStats and
// internal/machine.
package memsys
