package sim

// PacketCounts returns the packets net's free list has allocated over the
// network's life and the packets on it now. Together with net.InFlight they
// account for every packet the network generated: a packet is live or free.
// (A restore from a warm snapshot adds the snapshot's packets as copies the
// list did not allocate; the count leaves those out.)
func PacketCounts(net *Network) (allocated, free int) { return net.free.Counts() }

// Identity is the whole identity of c: every field any key selects from.
func Identity(c *Config) string { return c.identity(^idPart(0)) }
