package socket

// FinAcked reports whether the peer has acknowledged c's FIN. BytesSent
// counts acknowledged bytes only, so tests wait on this before asserting it.
// Call it from c's env context.
func FinAcked(c *Conn) bool { return c.finAcked }
