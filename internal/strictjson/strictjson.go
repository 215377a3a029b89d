// Package strictjson decodes the simulator's JSON inputs strictly: fault
// plans, scenarios, fleet specs, checkpoint records, run-log records and
// served requests all fail loudly on a typo or on trailing bytes instead of
// silently running something else.
package strictjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// Decode decodes data into v, rejecting unknown fields and anything other
// than whitespace after the first JSON value. A stray closing bracket counts
// as trailing data: json.Decoder.More reports false before one, so a More
// check alone accepts `{}}`.
func Decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}
