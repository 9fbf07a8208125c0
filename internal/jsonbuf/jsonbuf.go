// Package jsonbuf holds one JSON message at a time — a request or response
// body, a WAL payload — in a buffer that keeps encoding/json's per-call
// state from one message to the next. json.Unmarshal builds a decodeState
// and a parse stack per call and json.NewEncoder an Encoder; a Buffer
// builds its Decoder and Encoder once, and encoding/json stays the only
// parser.
package jsonbuf

import (
	"bytes"
	"encoding/json"
)

// Buffer is a bytes.Buffer with a json.Decoder over its contents and a
// json.Encoder into it, both made on first use and kept. The zero value is
// ready to use. A Buffer must not be copied after first use: the Decoder
// reads through the Buffer's own bytes.Reader.
type Buffer struct {
	bytes.Buffer
	rd  bytes.Reader
	dec *json.Decoder
	enc *json.Encoder
}

// Decode decodes the buffer's contents into v and returns what
// json.Unmarshal(b.Bytes(), v) would: the same values and the same error.
// json.Valid, which allocates nothing, screens the bytes first. A valid
// message is one value and nothing after it but whitespace, so the kept
// Decoder, which runs Unmarshal's decodeState code, never latches an error
// and never carries anything but whitespace into the next message. An
// invalid one goes to json.Unmarshal, for its exact error text. The
// contents stay in the buffer, and v refers to none of them.
func (b *Buffer) Decode(v any) error {
	data := b.Bytes()
	if !json.Valid(data) {
		return json.Unmarshal(data, v)
	}
	b.rd.Reset(data)
	if b.dec == nil {
		b.dec = json.NewDecoder(&b.rd)
	}
	return b.dec.Decode(v)
}

// Encode replaces the buffer's contents with v's JSON encoding followed by
// a newline, as a json.Encoder writes it. On failure the buffer is empty.
func (b *Buffer) Encode(v any) error {
	b.Reset()
	if b.enc == nil {
		b.enc = json.NewEncoder(&b.Buffer)
	}
	return b.enc.Encode(v)
}
