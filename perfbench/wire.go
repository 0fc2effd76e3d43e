package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// rawConn is one persistent HTTP/1.1 connection of the load generator.
// Requests are pre-rendered bytes; responses are read whole so their
// status and body can be compared with the in-process reference.
type rawConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

// reqTimeout bounds one request on the wire; a stall past it is a
// failed request.
const reqTimeout = 5 * time.Second

func dialRaw(addr string) (*rawConn, error) {
	c := &rawConn{addr: addr}
	return c, c.redial()
}

func (c *rawConn) redial() error {
	if c.conn != nil {
		c.conn.Close()
	}
	conn, err := net.DialTimeout("tcp", c.addr, reqTimeout)
	if err != nil {
		c.conn = nil
		return err
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 16<<10)
	return nil
}

func (c *rawConn) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do writes one request and reads its response. The returned body
// aliases a buffer reused by the next call.
func (c *rawConn) do(req []byte) (status int, body []byte, err error) {
	if c.conn == nil {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	status, body, err = c.roundTrip(req)
	if err != nil {
		// The connection state is unknown; the next request redials.
		c.close()
	}
	return status, body, err
}

func (c *rawConn) roundTrip(req []byte) (int, []byte, error) {
	if err := c.conn.SetDeadline(time.Now().Add(reqTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		if err := c.readChunked(); err != nil {
			return 0, nil, err
		}
	case length >= 0:
		c.body = grow(c.body, length)
		if _, err := io.ReadFull(c.br, c.body); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, fmt.Errorf("response without a length")
	}
	return status, c.body, nil
}

func (c *rawConn) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(bytes.SplitN(line, []byte(";"), 2)[0])), 16, 64)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			// Trailers (none expected) end with a bare CRLF.
			for {
				line, err = c.br.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(line) <= 2 {
					return nil
				}
			}
		}
		n := len(c.body)
		c.body = grow(c.body, n+int(size))
		if _, err := io.ReadFull(c.br, c.body[n:]); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil {
			return err
		}
	}
}

func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	nb := make([]byte, n, 2*n)
	copy(nb, b)
	return nb
}

// renderRequest builds the bytes of one HTTP/1.1 request. A fixed
// X-Request-ID makes error bodies, which echo it, reproducible.
func renderRequest(method, path, host, id string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: %s\r\nX-Request-ID: %s\r\n", method, path, host, id)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}
