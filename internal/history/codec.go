package history

import (
	"encoding/json"
	"fmt"
)

// jsonOp is the wire form of an operation.
type jsonOp struct {
	Kind   string `json:"kind"`
	Value  int64  `json:"value"`
	Start  int64  `json:"start"`
	Finish int64  `json:"finish"`
	Client int    `json:"client,omitempty"`
	Weight int64  `json:"weight,omitempty"`
}

// jsonHistory is the wire form of a history.
type jsonHistory struct {
	Ops []jsonOp `json:"ops"`
}

// MarshalJSON encodes the history as {"ops": [...]}.
func (h *History) MarshalJSON() ([]byte, error) {
	out := jsonHistory{Ops: make([]jsonOp, len(h.Ops))}
	for i, op := range h.Ops {
		out.Ops[i] = jsonOp{
			Kind:   op.Kind.String(),
			Value:  op.Value,
			Start:  op.Start,
			Finish: op.Finish,
			Client: op.Client,
			Weight: op.Weight,
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes {"ops": [...]} into the history, assigning IDs in
// input order.
func (h *History) UnmarshalJSON(data []byte) error {
	var in jsonHistory
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("history: unmarshal: %w", err)
	}
	h.Ops = make([]Operation, len(in.Ops))
	for i, jop := range in.Ops {
		var kind Kind
		switch jop.Kind {
		case "w", "W", "write":
			kind = KindWrite
		case "r", "R", "read":
			kind = KindRead
		default:
			return fmt.Errorf("history: unmarshal: unknown kind %q", jop.Kind)
		}
		h.Ops[i] = Operation{
			ID:     i,
			Kind:   kind,
			Value:  jop.Value,
			Start:  jop.Start,
			Finish: jop.Finish,
			Client: jop.Client,
			Weight: jop.Weight,
		}
	}
	return nil
}
