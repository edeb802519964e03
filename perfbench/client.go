package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"time"

	"gostats/internal/checkpoint"
	"gostats/internal/serve"
)

// sessionTimeout bounds one session; a session that exceeds it fails.
const sessionTimeout = 60 * time.Second

// request is one session's body and its expected committed output.
type request struct {
	path string
	// prefix holds control lines written before the inputs (a #resume
	// line); body holds the input lines, line i ending at ends[i].
	prefix []byte
	body   []byte
	ends   []int
	// digest is the SHA-256 of the committed output lines, each followed
	// by a newline, with #ckpt lines and the trailer stripped.
	digest  [sha256.Size]byte
	outputs int
}

// session is the client-side record of one served session.
type session struct {
	start   time.Time // POST start
	headers time.Time // response headers arrived (time to first byte)
	first   time.Time // first committed output line arrived
	end     time.Time // trailer line arrived
	// latencies holds, per input, the time from the write of its line to
	// the arrival of its committed output line, in ms.
	latencies []float64
	ckpts     []string // #ckpt payloads, validated after the session
	trailer   serve.Trailer
	bytesIn   int64
	bytesOut  int64
	span      int64 // root span ID when traced
	err       error
}

func (s *session) duration() time.Duration { return s.end.Sub(s.start) }

// client speaks HTTP/1.1 over one keep-alive connection, writing request
// lines itself so each line's write time is known.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	read int64 // bytes read from conn
}

// Read reads from the connection, counting the bytes.
func (c *client) Read(p []byte) (int, error) {
	n, err := c.conn.Read(p)
	c.read += int64(n)
	return n, err
}

func (c *client) Close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do runs one session and checks its output: status 200, a done trailer
// counting every input, and committed bytes matching the reference
// digest. Checkpoint lines are validated by checkSnapshots afterwards.
func (c *client) do(req *request) *session {
	s := &session{}
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			s.err = err
			return s
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(c, 64<<10)
	}
	// Any failure leaves the connection in an unknown state.
	defer func() {
		if s.err != nil {
			c.Close()
		}
	}()
	c.conn.SetDeadline(time.Now().Add(sessionTimeout))
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/x-ndjson\r\nContent-Length: %d\r\n\r\n",
		req.path, len(req.prefix)+len(req.body))
	s.bytesIn = int64(len(head) + len(req.prefix) + len(req.body))
	written := make([]time.Time, len(req.ends))
	wrote := make(chan error, 1)
	read0 := c.read
	s.start = time.Now()
	conn := c.conn
	go func() { wrote <- writeBody(conn, head, req, written) }()

	arrived, hdrClose, err := c.readResponse(s, req)
	if err != nil {
		// Unblock a writer stuck on backpressure before waiting for it.
		c.Close()
	}
	werr := <-wrote
	s.bytesOut = c.read - read0
	if err == nil {
		err = werr
	}
	if err != nil {
		s.err = err
		return s
	}
	if hdrClose {
		c.Close()
	}
	s.latencies = make([]float64, len(arrived))
	for i, t := range arrived {
		s.latencies[i] = ms(t.Sub(written[i]))
	}
	return s
}

// writeBody writes the request head and prefix, then one input line per
// write, stamping when each line's write returned.
func writeBody(conn net.Conn, head string, req *request, written []time.Time) error {
	if _, err := conn.Write(append([]byte(head), req.prefix...)); err != nil {
		return fmt.Errorf("writing request head: %w", err)
	}
	start := 0
	for i, end := range req.ends {
		if _, err := conn.Write(req.body[start:end]); err != nil {
			return fmt.Errorf("writing input line %d: %w", i+1, err)
		}
		written[i] = time.Now()
		start = end
	}
	return nil
}

// readResponse reads one session's response, stamping each committed
// output line as it arrives, and checks it against req.
func (c *client) readResponse(s *session, req *request) (arrived []time.Time, hdrClose bool, err error) {
	resp, err := http.ReadResponse(c.br, &http.Request{Method: http.MethodPost})
	if err != nil {
		return nil, false, fmt.Errorf("reading response head: %w", err)
	}
	defer resp.Body.Close()
	s.headers = time.Now()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, false, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	lr := bufio.NewReaderSize(resp.Body, 64<<10)
	h := sha256.New()
	var (
		line, last []byte
		lastAt     time.Time
		haveLast   bool
	)
	arrived = make([]time.Time, 0, req.outputs)
	// A line is an output once another line follows it; the final line
	// is the trailer.
	for {
		line, err = readLine(lr, line[:0])
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, false, fmt.Errorf("reading output: %w", err)
		}
		now := time.Now()
		if b64, ok := bytes.CutPrefix(line, []byte("#ckpt ")); ok {
			s.ckpts = append(s.ckpts, string(b64))
			continue
		}
		if bytes.HasPrefix(line, []byte("#")) {
			return nil, false, fmt.Errorf("unexpected control line %.40q", line)
		}
		if haveLast {
			arrived = recordOutput(h, arrived, last, lastAt)
		}
		last, lastAt, haveLast = append(last[:0], line...), now, true
	}
	if !haveLast {
		return nil, false, errors.New("response has no trailer")
	}
	s.end = lastAt
	if len(arrived) > 0 {
		s.first = arrived[0]
	}
	if err := json.Unmarshal(last, &s.trailer); err != nil {
		return nil, false, fmt.Errorf("decoding trailer: %w", err)
	}
	switch tr := s.trailer; {
	case !tr.Done:
		return nil, false, fmt.Errorf("trailer done=false: %s", tr.Error)
	case tr.Stats.Outputs != int64(req.outputs) || len(arrived) != req.outputs:
		return nil, false, fmt.Errorf("got %d output lines, trailer counts %d, sent %d inputs",
			len(arrived), tr.Stats.Outputs, req.outputs)
	case !bytes.Equal(h.Sum(nil), req.digest[:]):
		return nil, false, errors.New("committed output differs from the reference")
	}
	return arrived, resp.Close, nil
}

func recordOutput(h hash.Hash, arrived []time.Time, line []byte, at time.Time) []time.Time {
	h.Write(line)
	h.Write([]byte{'\n'})
	return append(arrived, at)
}

// readLine appends the next line, without its newline, to buf.
func readLine(r *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		frag, err := r.ReadSlice('\n')
		buf = append(buf, frag...)
		switch {
		case err == nil:
			return buf[:len(buf)-1], nil
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		case errors.Is(err, io.EOF) && len(buf) > 0:
			return buf, nil
		default:
			return buf, err
		}
	}
}

// checkSnapshots decodes every #ckpt payload of a session and checks it
// is a valid snapshot of the session's benchmark.
func checkSnapshots(s *session, benchmark string) error {
	for i, b64 := range s.ckpts {
		snap, err := checkpoint.DecodeString(b64)
		if err != nil {
			return fmt.Errorf("#ckpt line %d: %w", i+1, err)
		}
		if snap.Benchmark != benchmark {
			return fmt.Errorf("#ckpt line %d is a %q snapshot", i+1, snap.Benchmark)
		}
	}
	return nil
}
