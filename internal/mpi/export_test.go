package mpi

// Internals the external tests (package mpi_test) drive: they import
// internal/fault, which imports this package.

const EagerLimit = eagerLimit

// SendRecvChunks is SendRecv with a vectored send half.
func (c *Comm) SendRecvChunks(send [][]byte, dst, sendTag int, recvBuf []byte, src, recvTag int) (Status, error) {
	return c.sendRecv(send, dst, sendTag, recvBuf, src, recvTag)
}
