package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kat/internal/metrics"
	"kat/internal/online"
	"kat/internal/trace"
	"kat/internal/wire"
)

// Sender delivers keyed operations to one kavserve base URL exactly once: no
// operation a Send reports delivered is lost, and none is ingested twice,
// whatever fails in between. It is the one client of the ingest protocol —
// the router holds a Sender per member, kavgen -replay one per connection.
//
// Contract: for every key it is given, the Sender is the only writer to the
// server. Sends are serialized, and after a failure that leaves a post's fate
// unknown the server's authoritative /verdict counts tell the Sender exactly
// which leading per-key operations already landed — sound only if nobody
// else writes those keys concurrently. (So the router is the sole ingress to
// its members and kavgen -replay hands every key to exactly one connection;
// mixing both against the same members at once is unsupported.)
type Sender struct {
	// Base is the server's base URL, without a trailing slash.
	Base string
	// Client performs the requests. Per-hop deadlines come from request
	// contexts, so it needs no timeout of its own.
	Client *http.Client
	// Attempts caps the posts (and failed reconciles) one Send spends.
	Attempts int
	// HopTimeout bounds each request; 0 leaves that to ctx.
	HopTimeout time.Duration
	// RetryBase and RetryMax shape the jittered exponential back-off.
	RetryBase, RetryMax time.Duration
	// Breaker gates every attempt and hears its outcome. NewSender installs
	// one that never opens; the router swaps in a real one.
	Breaker *Breaker

	// Batches counts Sends delivered in full, Ops operations delivered, Bytes
	// request-body bytes posted (retries included), Retries attempts beyond
	// a Send's first, Reconciles ambiguous posts settled against /verdict.
	Batches, Ops, Bytes, Retries, Reconciles *metrics.Counter
	hopNanos                                 atomic.Int64

	// mu serializes Send (and so reconciliation), which is what makes the
	// acked-count arithmetic sound.
	mu sync.Mutex
	// acked counts, per key, the operations the server is known to hold.
	acked map[string]int64
	// stale asks the next Send to re-read acked from /verdict first.
	stale atomic.Bool
}

// NewSender builds a Sender for base. held is what the server is known to
// hold already, per key, for the keys the Sender will be given (the Sender
// keeps the map); nil means unknown, to be read off /verdict before the
// first post.
func NewSender(base string, client *http.Client, attempts int, held map[string]int64) *Sender {
	s := &Sender{
		Base: base, Client: client, Attempts: attempts, acked: held,
		Breaker: NewBreaker(math.MaxInt, 0),
		Batches: new(metrics.Counter), Ops: new(metrics.Counter), Bytes: new(metrics.Counter),
		Retries: new(metrics.Counter), Reconciles: new(metrics.Counter),
	}
	s.stale.Store(held == nil)
	return s
}

// Send delivers batch, in the given codec, retrying with back-off what the
// reject table says may be resent. It returns how many of batch's operations
// the server holds once Send is done (under failure any per-key-prefix
// subset, deliberately not a batch prefix) and, with an error, the row the
// server gave — the zero row when the failure was no typed reject: a
// transport error, an open breaker, attempts spent, ctx done.
func (s *Sender) Send(ctx context.Context, batch []wire.Op, isWire bool) (int64, online.Reject, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	var acked int64
	remaining := batch
	// credit accounts the first n remaining operations as delivered.
	credit := func(n int) {
		for _, op := range remaining[:n] {
			s.acked[op.Key]++
		}
		acked += int64(n)
		s.Ops.Add(int64(n))
		remaining = remaining[n:]
	}
	// ambiguous marks an in-flight post whose fate is unknown: the server
	// may hold operations s.acked does not credit. While it is set nothing
	// may be resent — only a reconcile against the server's authoritative
	// counts clears it. And if Send exits with it still set (attempts
	// spent, breaker fail-fast, ctx canceled, terminal reject), the acked
	// baseline is stale-low, so it must be refreshed from /verdict before
	// any later Send trusts count deltas — a stale baseline would make that
	// Send's reconcile trim NEW operations as "already applied".
	ambiguous := false
	defer func() {
		if ambiguous {
			s.stale.Store(true)
		}
	}()
	var last error          // why the previous attempt failed
	var floor time.Duration // the Retry-After it named, if any
	for attempt := 0; ; attempt++ {
		if len(remaining) == 0 {
			// Delivered: by a clean post, by a reconcile that found the rest
			// had landed, or because there was nothing to send.
			s.Batches.Inc()
			return acked, online.Reject{}, nil
		}
		if attempt >= s.Attempts {
			return acked, online.Reject{}, fmt.Errorf("gave up after %d attempts: %w", attempt, last)
		}
		if attempt > 0 {
			s.Retries.Inc()
			if !sleepCtx(ctx, s.backoff(attempt, floor)) {
				return acked, online.Reject{}, ctx.Err()
			}
			floor = 0
		}
		if !s.Breaker.Allow() {
			return acked, online.Reject{}, fmt.Errorf("circuit breaker %s", s.Breaker.State())
		}
		if ambiguous || s.stale.Load() {
			counts, err := s.Counts(ctx)
			if err != nil {
				// Unreachable for /verdict too; retry the loop (the breaker
				// will gate if this keeps up).
				s.Breaker.Failure()
				last = err
				continue
			}
			s.Breaker.Success() // /verdict answered: the server is alive
			if ambiguous {
				// Resolve the in-flight post before anything else touches the
				// wire: the server may have applied none, part, or all of it,
				// and a blind resend would double-ingest whatever landed. Drop
				// the leading per-key operations the server already holds —
				// sound because Sends are serialized and the Sender is the
				// only writer of its keys: any count growth since the last
				// acked snapshot is exactly the prefix of in-flight
				// operations that landed.
				s.Reconciles.Inc()
				var left []wire.Op
				for _, op := range remaining {
					if s.acked[op.Key] < counts[op.Key] {
						s.acked[op.Key]++ // one more of the growth accounted for
						acked++
						s.Ops.Inc()
					} else {
						left = append(left, op)
					}
				}
				remaining, ambiguous = left, false
			}
			s.acked = counts
			s.stale.Store(false)
			if len(remaining) == 0 {
				continue
			}
			// Resolved: fall through and resend the trimmed remainder in
			// this same attempt, so one injected fault still costs one
			// attempt of the retry budget.
		}
		body, contentType, err := renderBatch(remaining, isWire)
		if err != nil {
			// Re-encoding cannot fail for operations that decoded; treat as
			// a terminal defect rather than retrying.
			s.Breaker.Success()
			return acked, online.RejectMalformed, err
		}
		rej, row, retryAfter, err := s.post(ctx, body, contentType)
		if err != nil {
			// Transport-level: timeout, refused, torn or untyped response.
			// The batch's fate is unknown; the next attempt reconciles
			// before any resend.
			s.Breaker.Failure()
			ambiguous = true
			last = err
			continue
		}
		s.Breaker.Success()
		if rej == nil {
			credit(len(remaining))
			continue
		}
		if len(rej.Slices) > 0 {
			// A router split the batch per member: Ingested sums what they
			// took and is not a prefix, so only a per-key reconcile can tell
			// what is left.
			ambiguous = true
		} else {
			// Single-node prefix semantics: the first Ingested operations
			// were accepted and stay accepted.
			credit(int(min(rej.Ingested, int64(len(remaining)))))
		}
		last, floor = fmt.Errorf("%s: %s (%s)", s.Base, rej.Code, rej.Error), retryAfter
		if !row.Resend {
			return acked, row, last
		}
	}
}

// post performs one /ingest hop. A nil reject and error mean the whole body
// was accepted; a typed reject comes back with its table row and the
// Retry-After it named; an error is a transport failure or an answer that is
// no typed reject, either way of unknown effect.
func (s *Sender) post(ctx context.Context, body []byte, contentType string) (
	rej *DegradedReject, row online.Reject, retryAfter time.Duration, err error) {
	s.Bytes.Add(int64(len(body)))
	start := time.Now()
	err = s.do(ctx, s.HopTimeout, http.MethodPost, "/ingest", contentType, body, func(resp *http.Response) error {
		payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			// Accepted status but torn body: ambiguous, same as a dead hop.
			return fmt.Errorf("reading %s response: %w", s.Base, err)
		}
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		var reject DegradedReject
		if jerr := json.Unmarshal(payload, &reject); jerr != nil || reject.Code == "" {
			return fmt.Errorf("%s: %s: %.200s", s.Base, resp.Status, payload)
		}
		rej, row = &reject, online.RejectFor(reject.Code, resp.StatusCode)
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		return nil
	})
	s.hopNanos.Add(int64(time.Since(start)))
	return rej, row, retryAfter, err
}

// do performs one request against the server, bounded by timeout when there
// is one, and hands the response to use before the deadline is released. It
// is how everything reaches the server: posts, verdict documents, and the
// router's probes and proxied reads.
func (s *Sender) do(ctx context.Context, timeout time.Duration, method, path, contentType string, body []byte,
	use func(*http.Response) error) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, s.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := s.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return use(resp)
}

// Counts reads the server's authoritative per-key ingested-operation counts
// off /verdict. Only a complete document counts: a router's partial one
// cannot say what its unreachable members hold.
func (s *Sender) Counts(ctx context.Context) (map[string]int64, error) {
	doc, err := s.Doc(ctx, http.MethodGet, "/verdict", s.HopTimeout)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int64, len(doc.Keys))
	for _, ks := range doc.Keys {
		counts[ks.Key] = int64(ks.Ops)
	}
	return counts, nil
}

// Doc fetches one of the server's verdict documents (GET /verdict, POST
// /drain), bounded by timeout when there is one. Only a complete document,
// answered 200, counts.
func (s *Sender) Doc(ctx context.Context, method, path string, timeout time.Duration) (doc online.VerdictDoc, err error) {
	err = s.do(ctx, timeout, method, path, "", nil, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return fmt.Errorf("%s: %s %s: %s: %.200s", s.Base, method, path, resp.Status, body)
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			return fmt.Errorf("%s: decoding %s: %w", s.Base, path, err)
		}
		return nil
	})
	return doc, err
}

// renderBatch encodes operations in the requested codec — wire as one
// self-contained frame, since every request is its own decode stream — so a
// router forwards wire as wire and text as text, and each member's codec
// metrics still reflect what producers actually sent.
func renderBatch(ops []wire.Op, isWire bool) (body []byte, contentType string, err error) {
	if isWire {
		body, err = wire.EncodeSelfContained(nil, ops, false)
		return body, wire.ContentType, err
	}
	for _, op := range ops {
		body = trace.AppendKeyedOpText(body, op.Key, op.Op)
	}
	return body, "text/plain", nil
}

// backoff is the jittered exponential delay before attempt n (>= 1), at
// least the Retry-After the server named.
func (s *Sender) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := s.RetryBase << (attempt - 1)
	if d > s.RetryMax || d <= 0 {
		d = s.RetryMax
	}
	d = max(d, retryAfter)
	// Full jitter in [d/2, d]: desynchronizes concurrent retriers.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
