package wire

// Codec is the package's stateless codec value. It exists so byte-moving
// transports can take the codec as an interface (transport.Codec) without
// this package importing them: the method set simply forwards to the
// package-level functions.
type Codec struct{}

// AppendEncode appends v's encoding to buf.
func (Codec) AppendEncode(buf []byte, v any) ([]byte, error) { return AppendEncode(buf, v) }

// Decode parses one value from the front of data.
func (Codec) Decode(data []byte) (any, int, error) { return Decode(data) }
