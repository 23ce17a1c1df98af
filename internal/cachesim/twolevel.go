package cachesim

import (
	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// Two-level simulation: the diskless-workstation architecture the paper's
// introduction motivates. Each machine keeps a local block cache; misses
// and (write-through) modifications travel over the network to one file
// server, whose own large cache stands in front of the disk. The paper
// asks "how much network bandwidth is needed to support a diskless
// workstation?" and "how should disk block caches be organized?"; this
// simulation answers both at once: client hit ratios bound the network
// traffic, and the server cache bounds the disk traffic.
//
// Clients write through to the server (a client crash then loses nothing,
// which is why early network file systems made this choice); the server
// applies any of the usual write policies against its disk. The network
// is the hierarchy engine's [client, server, disk] stack.

// TwoLevelConfig parameterizes the network.
type TwoLevelConfig struct {
	// BlockSize is shared by clients and server.
	BlockSize int64
	// ClientCache is each machine's local cache capacity; ServerCache
	// the file server's.
	ClientCache int64
	ServerCache int64
	// Write is the server's disk write policy (clients always write
	// through to the server); FlushInterval applies to FlushBack.
	Write         WritePolicy
	FlushInterval trace.Time
}

// TwoLevelResult reports the network's behavior at every level.
type TwoLevelResult struct {
	Config TwoLevelConfig
	// ClientAccesses counts block accesses at the clients;
	// ClientReadMisses those that had to fetch from the server.
	ClientAccesses   int64
	ClientReadMisses int64
	// WriteForwards counts blocks written through to the server.
	WriteForwards int64
	// NetworkBlocks is the total blocks crossing the network:
	// ClientReadMisses + WriteForwards.
	NetworkBlocks int64
	// ServerDiskReads and ServerDiskWrites are the server's disk I/O.
	ServerDiskReads  int64
	ServerDiskWrites int64
}

// ClientHitRatio returns the fraction of client accesses served locally.
func (r *TwoLevelResult) ClientHitRatio() float64 {
	if r.ClientAccesses == 0 {
		return 0
	}
	return 1 - float64(r.NetworkBlocks)/float64(r.ClientAccesses)
}

// ServerDiskIOs returns the server's total disk operations.
func (r *TwoLevelResult) ServerDiskIOs() int64 { return r.ServerDiskReads + r.ServerDiskWrites }

// EndToEndMissRatio returns server disk I/Os per client block access: the
// fraction of logical accesses that reach a disk at all.
func (r *TwoLevelResult) EndToEndMissRatio() float64 {
	if r.ClientAccesses == 0 {
		return 0
	}
	return float64(r.ServerDiskIOs()) / float64(r.ClientAccesses)
}

// hierarchy returns the network as a tier stack: LRU write-through
// clients over an LRU server over the disk.
func (cfg TwoLevelConfig) hierarchy() HierarchyConfig {
	return HierarchyConfig{BlockSize: cfg.BlockSize, Tiers: []Tier{
		{Name: "client", Size: cfg.ClientCache, Replacement: LRU, Write: WriteThrough},
		{Name: "server", Size: cfg.ServerCache, Replacement: LRU, Write: cfg.Write, FlushInterval: cfg.FlushInterval},
		{Name: "disk"},
	}}
}

// TwoLevelSimulateTapes runs one tape per machine through a local
// write-through client cache and forwards the resulting traffic to a
// shared server cache, as HierarchySimulateTapes does for the
// [client, server, disk] stack. No wear is reported, so none is counted.
func TwoLevelSimulateTapes(tapes []*xfer.Tape, cfg TwoLevelConfig) (*TwoLevelResult, error) {
	h, err := simulateHierarchy(tapes, cfg.hierarchy(), nil, false)
	if err != nil {
		return nil, err
	}
	client := &h.Tiers[0]
	return &TwoLevelResult{
		Config:           cfg,
		ClientAccesses:   h.ClientAccesses,
		ClientReadMisses: client.ReadMisses,
		WriteForwards:    client.WriteBacks,
		NetworkBlocks:    h.NetworkBlocks(),
		ServerDiskReads:  h.DiskReads(),
		ServerDiskWrites: h.DiskWrites(),
	}, nil
}
