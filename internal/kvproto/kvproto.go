// Package kvproto exposes a KAML device as a network key-value store —
// the shape of service the paper's introduction motivates (and the
// Kinetic-style deployment §VI contrasts with). Two wire flavors share
// every port.
//
// The legacy text protocol, for humans and netcat (values are binary-safe
// via length-prefixed payloads):
//
//	CREATE <expectedKeys>\n            -> NS <id>\n
//	SNAPSHOT <ns>\n                    -> NS <id>\n
//	DELETE <ns>\n                      -> OK\n
//	PUT <ns> <key> <len>\n<len bytes>  -> OK\n
//	GET <ns> <key>\n                   -> VAL <len>\n<len bytes> | ERR not-found\n
//	STATS\n                            -> STATS puts=<n> gets=<n> ...\n
//	QUIT\n                             -> BYE\n
//
// And the framed v2 protocol (see framed.go): a connection whose FIRST
// line is "KVP2\n" switches to length-prefixed binary frames carrying
// request IDs, letting a client pipeline many commands on one connection
// with out-of-order completion — the protocol-level mirror of the device's
// submission/completion queues. Client speaks v2; TextClient keeps the
// serial text flavor.
//
// The server bridges real network goroutines onto the device's simulated
// clock: each request executes as a short-lived simulation actor while the
// connection goroutine (text) or completion writer (framed) waits on real
// channels.
package kvproto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// MaxValueLen bounds a PUT payload.
const MaxValueLen = 1 << 20

// Server serves the protocol over a listener.
type Server struct {
	dev *kaml.Device
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}

	// Telemetry, registered in the device's registry. inFlight counts framed commands admitted but not yet completed across
	// all connections; writerQ is the total backlog of completions waiting
	// for connection writer goroutines. warnOnce fires the one-time
	// writer-backlog warning (see handleFramed).
	inFlight *telemetry.Gauge
	writerQ  *telemetry.Gauge
	warnOnce sync.Once
}

// NewServer wraps an open device.
func NewServer(dev *kaml.Device) *Server {
	s := &Server{dev: dev, conns: make(map[net.Conn]struct{})}
	r := dev.Telemetry()
	r.Help("kaml_srv_inflight_requests", "Framed commands admitted and executing on the device, all connections.")
	r.Help("kaml_srv_writer_queue_depth", "Completions queued for connection writer goroutines, all connections.")
	s.inFlight = r.Gauge("kaml_srv_inflight_requests")
	s.writerQ = r.Gauge("kaml_srv_writer_queue_depth")
	return s
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops the listener and open connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// runOnDevice executes fn as a simulation actor and waits for it.
func (s *Server) runOnDevice(fn func()) {
	done := make(chan struct{})
	s.dev.Go(func() {
		defer close(done)
		fn()
	})
	<-done
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case Handshake:
			// Protocol upgrade: acknowledge in text, then hand the
			// connection to the framed engine until it disconnects.
			w.WriteString(handshakeReply)
			if err := w.Flush(); err != nil {
				return
			}
			s.handleFramed(conn, r, w)
			return
		case "CREATE":
			s.cmdCreate(w, fields)
		case "SNAPSHOT":
			s.cmdSnapshot(w, fields)
		case "DELETE":
			s.cmdDelete(w, fields)
		case "PUT":
			s.cmdPut(w, r, fields)
		case "GET":
			s.cmdGet(w, fields)
		case "STATS":
			s.cmdStats(w)
		case "QUIT":
			fmt.Fprintf(w, "BYE\n")
			w.Flush()
			return
		default:
			fmt.Fprintf(w, "ERR unknown command %q\n", fields[0])
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) cmdCreate(w io.Writer, fields []string) {
	expected := 0
	if len(fields) >= 2 {
		expected, _ = strconv.Atoi(fields[1])
	}
	var ns kaml.Namespace
	var err error
	s.runOnDevice(func() {
		ns, err = s.dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: expected})
	})
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "NS %d\n", ns)
}

func (s *Server) cmdSnapshot(w io.Writer, fields []string) {
	if len(fields) < 2 {
		fmt.Fprintf(w, "ERR usage: SNAPSHOT <ns>\n")
		return
	}
	ns, perr := strconv.ParseUint(fields[1], 10, 32)
	if perr != nil {
		fmt.Fprintf(w, "ERR bad namespace\n")
		return
	}
	var snap kaml.Namespace
	var err error
	s.runOnDevice(func() { snap, err = s.dev.Snapshot(uint32(ns)) })
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "NS %d\n", snap)
}

func (s *Server) cmdDelete(w io.Writer, fields []string) {
	if len(fields) < 2 {
		fmt.Fprintf(w, "ERR usage: DELETE <ns>\n")
		return
	}
	ns, perr := strconv.ParseUint(fields[1], 10, 32)
	if perr != nil {
		fmt.Fprintf(w, "ERR bad namespace\n")
		return
	}
	var err error
	s.runOnDevice(func() { err = s.dev.DeleteNamespace(uint32(ns)) })
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "OK\n")
}

func (s *Server) cmdPut(w io.Writer, r *bufio.Reader, fields []string) {
	if len(fields) < 4 {
		fmt.Fprintf(w, "ERR usage: PUT <ns> <key> <len>\n")
		return
	}
	ns, e1 := strconv.ParseUint(fields[1], 10, 32)
	key, e2 := strconv.ParseUint(fields[2], 10, 64)
	n, e3 := strconv.Atoi(fields[3])
	if e1 != nil || e2 != nil || e3 != nil || n < 0 || n > MaxValueLen {
		fmt.Fprintf(w, "ERR bad arguments\n")
		return
	}
	val := make([]byte, n)
	if _, err := io.ReadFull(r, val); err != nil {
		fmt.Fprintf(w, "ERR short payload\n")
		return
	}
	var err error
	s.runOnDevice(func() { err = s.dev.Put(uint32(ns), key, val) })
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "OK\n")
}

func (s *Server) cmdGet(w io.Writer, fields []string) {
	if len(fields) < 3 {
		fmt.Fprintf(w, "ERR usage: GET <ns> <key>\n")
		return
	}
	ns, e1 := strconv.ParseUint(fields[1], 10, 32)
	key, e2 := strconv.ParseUint(fields[2], 10, 64)
	if e1 != nil || e2 != nil {
		fmt.Fprintf(w, "ERR bad arguments\n")
		return
	}
	var val []byte
	var err error
	s.runOnDevice(func() { val, err = s.dev.Get(uint32(ns), key) })
	if errors.Is(err, kaml.ErrKeyNotFound) {
		fmt.Fprintf(w, "ERR not-found\n")
		return
	}
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "VAL %d\n", len(val))
	w.Write(val)
	fmt.Fprintf(w, "\n")
}

func (s *Server) cmdStats(w io.Writer) {
	fmt.Fprintf(w, "%s\n", statsLine(s.dev.Stats()))
}

// TextClient is a minimal serial client for the legacy text protocol. A
// transport error poisons it: the in-flight request fails, and every later
// call fails fast with the same error — the reply stream can no longer be
// trusted to line up with requests.
type TextClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	mu   sync.Mutex
	err  error // first transport error; sticky
}

// DialText connects to a server with the text protocol.
func DialText(addr string) (*TextClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewTextClient(conn), nil
}

// NewTextClient wraps an established connection.
func NewTextClient(conn net.Conn) *TextClient {
	return &TextClient{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
}

// Close closes the connection.
func (c *TextClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		fmt.Fprintf(c.w, "QUIT\n")
		c.w.Flush()
	}
	return c.conn.Close()
}

// fail poisons the client with the first transport error. Caller holds
// c.mu.
func (c *TextClient) fail(err error) error {
	if c.err == nil {
		c.err = err
		c.conn.Close()
	}
	return c.err
}

func (c *TextClient) roundTrip(req string) (string, error) {
	if c.err != nil {
		return "", c.err
	}
	if _, err := c.w.WriteString(req); err != nil {
		return "", c.fail(err)
	}
	if err := c.w.Flush(); err != nil {
		return "", c.fail(err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", c.fail(err)
	}
	return strings.TrimSpace(line), nil
}

func parseErr(resp string) error {
	if strings.HasPrefix(resp, "ERR ") {
		return errors.New(resp[4:])
	}
	return fmt.Errorf("kvproto: unexpected response %q", resp)
}

// CreateNamespace asks the server for a new namespace.
func (c *TextClient) CreateNamespace(expectedKeys int) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(fmt.Sprintf("CREATE %d\n", expectedKeys))
	if err != nil {
		return 0, err
	}
	var ns uint32
	if _, err := fmt.Sscanf(resp, "NS %d", &ns); err != nil {
		return 0, parseErr(resp)
	}
	return ns, nil
}

// Put stores a value.
func (c *TextClient) Put(ns uint32, key uint64, val []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	fmt.Fprintf(c.w, "PUT %d %d %d\n", ns, key, len(val))
	c.w.Write(val)
	if err := c.w.Flush(); err != nil {
		return c.fail(err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return c.fail(err)
	}
	if strings.TrimSpace(line) != "OK" {
		return parseErr(strings.TrimSpace(line))
	}
	return nil
}

// Get fetches a value.
func (c *TextClient) Get(ns uint32, key uint64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(fmt.Sprintf("GET %d %d\n", ns, key))
	if err != nil {
		return nil, err
	}
	if resp == "ERR not-found" {
		return nil, ErrNotFound
	}
	var n int
	if _, err := fmt.Sscanf(resp, "VAL %d", &n); err != nil {
		return nil, parseErr(resp)
	}
	val := make([]byte, n)
	if _, err := io.ReadFull(c.r, val); err != nil {
		return nil, c.fail(err)
	}
	// trailing newline
	if _, err := c.r.ReadString('\n'); err != nil {
		return nil, c.fail(err)
	}
	return val, nil
}

// Snapshot asks the server to snapshot a namespace.
func (c *TextClient) Snapshot(ns uint32) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(fmt.Sprintf("SNAPSHOT %d\n", ns))
	if err != nil {
		return 0, err
	}
	var snap uint32
	if _, err := fmt.Sscanf(resp, "NS %d", &snap); err != nil {
		return 0, parseErr(resp)
	}
	return snap, nil
}

// Stats fetches the server's device counters as a raw line.
func (c *TextClient) Stats() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTrip("STATS\n")
}
