package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// httpConn is a minimal HTTP/1.1 keep-alive client on one TCP connection,
// used from one goroutine. It writes the request and parses the response
// inline, with no per-connection helper goroutines, so the client's own cost
// per request stays small and steady next to the server it measures.
type httpConn struct {
	addr     string
	clientID string
	c        net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	body     []byte
}

func dialHTTP(addr, clientID string) (*httpConn, error) {
	h := &httpConn{addr: addr, clientID: clientID}
	return h, h.redial()
}

func (h *httpConn) redial() error {
	if h.c != nil {
		h.c.Close()
	}
	c, err := net.DialTimeout("tcp", h.addr, 5*time.Second)
	if err != nil {
		return err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	h.c = c
	h.br = bufio.NewReaderSize(c, 64<<10)
	h.bw = bufio.NewWriterSize(c, 16<<10)
	return nil
}

func (h *httpConn) Close() {
	if h.c != nil {
		h.c.Close()
	}
}

// do sends one request and returns the status and the body, which stays
// valid until the next call. A transport error closes the connection and
// redials it, so the next request starts clean.
func (h *httpConn) do(method, target string, body []byte) (int, []byte, error) {
	status, resp, err := h.roundTrip(method, target, body)
	if err != nil {
		if rerr := h.redial(); rerr != nil {
			return 0, nil, fmt.Errorf("%w (redial: %v)", err, rerr)
		}
	}
	return status, resp, err
}

func (h *httpConn) roundTrip(method, target string, body []byte) (int, []byte, error) {
	h.c.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(h.bw, "%s %s HTTP/1.1\r\nHost: %s\r\nX-Client-ID: %s\r\n", method, target, h.addr, h.clientID)
	if body != nil || method != "GET" {
		fmt.Fprintf(h.bw, "Content-Length: %d\r\n", len(body))
	}
	h.bw.WriteString("\r\n")
	h.bw.Write(body)
	if err := h.bw.Flush(); err != nil {
		return 0, nil, err
	}

	line, err := h.line()
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		line, err := h.line()
		if err != nil {
			return 0, nil, err
		}
		if len(line) == 0 {
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
		case bytes.EqualFold(k, []byte("Connection")):
			closing = bytes.EqualFold(v, []byte("close"))
		}
	}
	h.body = h.body[:0]
	switch {
	case status == 204 || status == 304:
	case chunked:
		for {
			line, err := h.line()
			if err != nil {
				return 0, nil, err
			}
			sz, _, _ := bytes.Cut(line, []byte(";"))
			n, err := strconv.ParseInt(string(sz), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if n == 0 {
				if _, err := h.line(); err != nil { // trailer end
					return 0, nil, err
				}
				break
			}
			if err := h.read(int(n)); err != nil {
				return 0, nil, err
			}
			if _, err := h.line(); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		if err := h.read(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errors.New("response without length")
	}
	if closing {
		if err := h.redial(); err != nil {
			return 0, nil, err
		}
	}
	return status, h.body, nil
}

// line reads one CRLF-terminated line without the terminator.
func (h *httpConn) line() ([]byte, error) {
	l, err := h.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

// read appends exactly n body bytes to h.body.
func (h *httpConn) read(n int) error {
	off := len(h.body)
	if cap(h.body)-off < n {
		nb := make([]byte, off, off+n+4096)
		copy(nb, h.body)
		h.body = nb
	}
	h.body = h.body[:off+n]
	_, err := io.ReadFull(h.br, h.body[off:])
	return err
}
