package fabric

import "sync/atomic"

// CountReads makes c count its disk reads in n, for the daemon tests of
// package fabric_test.
func CountReads(c *CAS, n *atomic.Int64) {
	read := c.readFile
	c.readFile = func(name string) ([]byte, error) {
		n.Add(1)
		return read(name)
	}
}
