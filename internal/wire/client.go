package wire

import (
	"fmt"
	"io"
)

// Client is a pipelining client codec over any byte stream: Send buffers
// commands, Flush pushes the batch, Recv decodes one reply. Do is the
// unpipelined convenience (one round trip per command). Not safe for
// concurrent use; the caller owns the connection's lifetime.
//
// Pipelining is synchronous, as in any request/reply protocol without a
// reader thread: the server starts writing replies while the client is
// still writing commands, so a single batch written before reading any
// replies must fit within the transport's buffering (the codec buffers
// 64 KiB per direction; kernel socket buffers add more over TCP, while
// net.Pipe adds nothing). Cap pipeline batches by bytes, not just
// command count, or deadlock is possible with both sides blocked on
// writes.
type Client struct {
	r *Reader
	w *Writer
}

// NewClient wraps a connection (or any read-writer) in a client codec.
func NewClient(rw io.ReadWriter) *Client {
	return &Client{r: NewReader(rw), w: NewWriter(rw)}
}

// Send buffers one command without flushing (pipelining).
func (c *Client) Send(args ...string) error { return c.w.WriteCommand(args...) }

// Flush pushes all buffered commands to the server.
func (c *Client) Flush() error { return c.w.Flush() }

// Recv decodes the next reply.
func (c *Client) Recv() (Reply, error) { return c.r.ReadReply() }

// Do sends one command and waits for its reply: Send + Flush + Recv.
func (c *Client) Do(args ...string) (Reply, error) {
	if err := c.Send(args...); err != nil {
		return Reply{}, err
	}
	if err := c.Flush(); err != nil {
		return Reply{}, err
	}
	return c.Recv()
}

// errReply converts an error reply into a Go error.
func errReply(r Reply) error {
	if r.Kind == ErrorReply {
		return fmt.Errorf("wire: server error: %s", r.Str)
	}
	return nil
}

// Get fetches key k; ok reports presence.
func (c *Client) Get(k string) (v string, ok bool, err error) {
	r, err := c.Do("GET", k)
	if err != nil {
		return "", false, err
	}
	switch r.Kind {
	case BulkReply:
		return r.Str, true, nil
	case NilReply:
		return "", false, nil
	default:
		return "", false, unexpected("GET", r)
	}
}

// Set stores v under k.
func (c *Client) Set(k, v string) error {
	r, err := c.Do("SET", k, v)
	if err != nil {
		return err
	}
	if err := errReply(r); err != nil {
		return err
	}
	if r.Kind != SimpleReply {
		return unexpected("SET", r)
	}
	return nil
}

// Del removes the given keys, returning how many existed.
func (c *Client) Del(keys ...string) (int64, error) {
	r, err := c.Do(append([]string{"DEL"}, keys...)...)
	if err != nil {
		return 0, err
	}
	if err := errReply(r); err != nil {
		return 0, err
	}
	if r.Kind != IntReply {
		return 0, unexpected("DEL", r)
	}
	return r.Int, nil
}

// Len returns the server's current item count.
func (c *Client) Len() (int64, error) {
	r, err := c.Do("LEN")
	if err != nil {
		return 0, err
	}
	if err := errReply(r); err != nil {
		return 0, err
	}
	if r.Kind != IntReply {
		return 0, unexpected("LEN", r)
	}
	return r.Int, nil
}

func unexpected(cmd string, r Reply) error {
	if err := errReply(r); err != nil {
		return err
	}
	return fmt.Errorf("wire: unexpected %s reply kind %s", cmd, r.Kind)
}
