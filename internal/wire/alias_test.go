package wire_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cycledger/internal/wire"
)

// goldenEncodings returns the encodings committed in
// testdata/encoding.golden, one per fixture, with the type each line names.
func goldenEncodings(t *testing.T) (names []string, encs [][]byte) {
	t.Helper()
	f, err := os.Open("testdata/encoding.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, wire.MaxMessageSize)
	for sc.Scan() {
		name, hexed, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("golden line %q has no encoding", sc.Text())
		}
		enc, err := hex.DecodeString(hexed)
		if err != nil {
			t.Fatalf("golden line for %s: %v", name, err)
		}
		names, encs = append(names, name), append(encs, enc)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return names, encs
}

// byteFields calls visit on every non-empty []byte reachable from v.
func byteFields(v reflect.Value, visit func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			byteFields(v.Elem(), visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			byteFields(v.Field(i), visit)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			byteFields(it.Value(), visit)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if v.Len() > 0 {
				visit(v)
			}
			return
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			byteFields(v.Index(i), visit)
		}
	}
}

// TestDecodedBytesAliasReadOnly pins the ownership rule of the package
// comment on every golden encoding. A decoded byte field is a window on the
// input — inside it, with no spare capacity, so an append to one can never
// reach the field after it — and nothing the codec does with the decoded
// value afterwards (sizing it, encoding it, decoding its encoding) writes
// through that window: the input comes out byte for byte as it went in, and
// the value re-encodes to it.
func TestDecodedBytesAliasReadOnly(t *testing.T) {
	names, encs := goldenEncodings(t)
	aliased := 0
	for i, enc := range encs {
		input := bytes.Clone(enc)
		v, n, err := wire.Decode(input)
		if err != nil || n != len(input) {
			t.Fatalf("%s: Decode consumed %d of %d bytes, err %v", names[i], n, len(input), err)
		}
		lo := reflect.ValueOf(input).Pointer()
		byteFields(reflect.ValueOf(&v), func(b reflect.Value) {
			if b.Cap() != b.Len() {
				t.Errorf("%s: a decoded %d-byte field has capacity %d", names[i], b.Len(), b.Cap())
			}
			if p := b.Pointer(); p >= lo && p+uintptr(b.Len()) <= lo+uintptr(len(input)) {
				aliased++
			}
		})
		if size, err := wire.SizeHint(v); err != nil || size != len(input) {
			t.Errorf("%s: SizeHint %d, err %v, want %d", names[i], size, err, len(input))
		}
		again, err := wire.Encode(v)
		if err != nil || !bytes.Equal(again, enc) {
			t.Errorf("%s: the decoded value re-encodes differently (err %v)\n got %x\nwant %x", names[i], err, again, enc)
		}
		if _, _, err := wire.Decode(again); err != nil {
			t.Errorf("%s: the re-encoding does not decode: %v", names[i], err)
		}
		if !bytes.Equal(input, enc) {
			t.Errorf("%s: the input changed under its decoded value\n got %x\nwant %x", names[i], input, enc)
		}
	}
	if aliased == 0 {
		t.Error("no decoded byte field lies inside its input: the check is vacuous")
	}
}

// TestDecodeSharedBodyConcurrently decodes each golden encoding from
// several goroutines at once, then sizes and re-encodes what each decoded —
// the recipients of one live broadcast, all reading one body. Under -race
// any write to the shared input fails here.
func TestDecodeSharedBodyConcurrently(t *testing.T) {
	names, encs := goldenEncodings(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, enc := range encs {
				v, _, err := wire.Decode(enc)
				if err != nil {
					t.Errorf("%s: Decode: %v", names[i], err)
					continue
				}
				if again, err := wire.Encode(v); err != nil || !bytes.Equal(again, enc) {
					t.Errorf("%s: a concurrent decode re-encodes differently (err %v)", names[i], err)
				}
			}
		}()
	}
	wg.Wait()
}
