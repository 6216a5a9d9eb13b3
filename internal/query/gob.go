package query

import (
	"bytes"
	"encoding/gob"

	"repro/internal/fields"
	"repro/internal/tuple"
)

// opWire mirrors Op with every field exported so gob can move compiled
// query pipelines across the control-plane connection between the runtime
// and the data-plane driver.
type opWire struct {
	Kind           OpKind
	Clauses        []Clause
	DynFilterTable string
	DynKeyField    fields.ID
	DynLevel       int
	Cols           []Column
	KeyCols        []int
	Func           AggFunc
	ValCol         int
	InSchema       tuple.Schema
	OutSchema      tuple.Schema
	PacketPhase    bool
}

// GobEncode implements gob.GobEncoder, including the unexported schema and
// phase fields the evaluator depends on.
func (o *Op) GobEncode() ([]byte, error) {
	w := opWire{
		Kind: o.Kind, Clauses: o.Clauses,
		DynFilterTable: o.DynFilterTable, DynKeyField: o.DynKeyField, DynLevel: o.DynLevel,
		Cols: o.Cols, KeyCols: o.KeyCols, Func: o.Func, ValCol: o.ValCol,
		InSchema: o.inSchema, OutSchema: o.outSchema, PacketPhase: o.packetPhase,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (o *Op) GobDecode(data []byte) error {
	var w opWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	*o = Op{
		Kind: w.Kind, Clauses: w.Clauses,
		DynFilterTable: w.DynFilterTable, DynKeyField: w.DynKeyField, DynLevel: w.DynLevel,
		Cols: w.Cols, KeyCols: w.KeyCols, Func: w.Func, ValCol: w.ValCol,
		inSchema: w.InSchema, outSchema: w.OutSchema, packetPhase: w.PacketPhase,
	}
	return nil
}
