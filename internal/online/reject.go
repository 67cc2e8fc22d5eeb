package online

import (
	"encoding/json"
	"net/http"
)

// Reject is one row of the ingest protocol's reject table: a failure /ingest
// can answer with, and what a producer may do about it. The server, the
// multi-tenant frontend, the cluster router, the exactly-once sender behind
// the router and kavgen -replay, and the chaos proxy all read these rows;
// no other file spells a reject code.
type Reject struct {
	// Code is the stable machine-readable discriminator in the body.
	Code string
	// Status is the HTTP status the reject goes out under.
	Status int
	// RetryAfter reports that the response carries a Retry-After header.
	RetryAfter bool
	// Resend reports that what is left of the batch once the accepted
	// operations are credited may be sent again after a back-off: nothing
	// was lost and the condition clears by itself.
	Resend bool
	// Sticky reports that every later request fails the same way until an
	// operator steps in; a producer should stop, not back off.
	Sticky bool
	// Shed reports that the request was turned away before its body was
	// read, so Ingested is 0; sheds are counted per code in
	// kavserve_ingest_rejected_total{reason="<code>"}.
	Shed bool
}

// The table. A single node sends every row but the last; a router passes its
// members' rows through and adds RejectDegraded.
var (
	// Drain is in progress or complete: terminal, stop sending. Also what a
	// request caught mid-body by the drain gets, with the operations it had
	// already delivered in Ingested.
	RejectDraining = Reject{Code: "draining", Status: http.StatusConflict, Sticky: true, Shed: true}
	// The tenant buffers Config.MemoryBudget bytes of operations even after
	// relief: the backlog drains as verification catches up, the tenant's
	// keys retire, or relief spills.
	RejectOverload = Reject{Code: "overload", Status: http.StatusServiceUnavailable, RetryAfter: true, Resend: true, Shed: true}
	// A tenant's lifetime operation or key quota is spent, for good:
	// retirement does not lower either count.
	RejectQuotaSpent = Reject{Code: "quota_exceeded", Status: http.StatusTooManyRequests, Sticky: true, Shed: true}
	// A key broke the nondecreasing-start ingest contract.
	RejectOutOfOrder = Reject{Code: "out_of_order", Status: http.StatusConflict, Sticky: true}
	// The write-ahead log failed beneath the session.
	RejectDurability = Reject{Code: "durability", Status: http.StatusInternalServerError, Sticky: true}
	// Unparseable input. Only the batch is bad: the operations before the
	// defect stay accepted and the next request is judged on its own.
	RejectMalformed = Reject{Code: "malformed", Status: http.StatusBadRequest}
	// Router only: some member's share of the batch was not delivered. The
	// body carries "slices" (cluster.DegradedReject says what that does to
	// Ingested); Retry-After is sent only when a failed slice may clear.
	RejectDegraded = Reject{Code: "degraded", Status: http.StatusServiceUnavailable, RetryAfter: true, Resend: true}
)

// Rejects lists the table's rows.
var Rejects = []Reject{
	RejectDraining, RejectOverload, RejectQuotaSpent, RejectOutOfOrder,
	RejectDurability, RejectMalformed, RejectDegraded,
}

// RejectFor returns the row a response with this code and status is. A pair
// the table does not have — a newer server's — reads as terminal: never
// resend what is not understood.
func RejectFor(code string, status int) Reject {
	for _, r := range Rejects {
		if r.Code == code && r.Status == status {
			return r
		}
	}
	return Reject{Code: code, Status: status}
}

// IngestReject is the JSON body of a failed /ingest request. Code names the
// table row. Ingested reports how many operations of this request were
// accepted before the failure (accepted operations stay accepted — per-key
// prefixes remain intact). For malformed binary bodies, Offset is the
// request-body byte offset where the frame defect was detected.
type IngestReject struct {
	Code     string `json:"code"`
	Error    string `json:"error"`
	Ingested int64  `json:"ingested"`
	Offset   *int64 `json:"offset,omitempty"`
}

// WriteReject answers a request with row's status and headers and body as
// compact JSON.
func WriteReject(w http.ResponseWriter, row Reject, body any) {
	if row.RetryAfter {
		// Back off for a beat; sheds drain as verification catches up.
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(row.Status)
	json.NewEncoder(w).Encode(body)
}
