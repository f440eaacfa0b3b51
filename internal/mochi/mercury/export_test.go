package mercury

import "time"

// SetTimeout sets the per-call deadline. Zero or negative restores the
// default; there is deliberately no way to disable the deadline entirely.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	if d <= 0 {
		d = DefaultCallTimeout
	}
	c.timeout = d
	c.mu.Unlock()
}
