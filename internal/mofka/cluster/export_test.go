package cluster

// Epoch returns the partition's current fencing epoch.
func (c *Cluster) Epoch(topic string, part int) (uint64, error) {
	ps, err := c.partition(topic, part)
	if err != nil {
		return 0, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.epoch, nil
}
