package trace

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds the traceparent parser arbitrary strings:
// the coordinator parses a station's GrantReply.Trace with it and every
// wire envelope carries one. It must never panic, must reject with the
// zero context, and whatever it accepts must be a valid context that
// renders back to the same string (hex case aside) and parses again to
// itself.
func FuzzParseTraceparent(f *testing.F) {
	const valid = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	f.Add(valid)
	f.Add(valid[:53] + "00")                                            // unsampled
	f.Add(strings.ToUpper(valid))                                       // upper-case hex
	f.Add("")                                                           // absent
	f.Add(valid[:54])                                                   // truncated
	f.Add(valid + "0")                                                  // too long
	f.Add("01" + valid[2:])                                             // wrong version
	f.Add("00-" + strings.Repeat("0", 32) + "-" + valid[36:52] + "-01") // zero trace ID
	f.Add("00-" + valid[3:35] + "-" + strings.Repeat("0", 16) + "-01")  // zero span ID
	f.Add("00-" + strings.Repeat("g", 32) + "-" + valid[36:52] + "-01") // non-hex
	f.Add(valid[:53] + "02")                                            // unknown flags
	f.Add("00-" + valid[3:34] + "é" + valid[36:])                       // a multi-byte rune
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q as an invalid context %+v", s, sc)
		}
		out := sc.Traceparent()
		if !strings.EqualFold(out, s) {
			t.Fatalf("accepted %q but renders %q", s, out)
		}
		if again, ok := ParseTraceparent(out); !ok || again != sc {
			t.Fatalf("rendered %q parses to %+v, %v; want %+v", out, again, ok, sc)
		}
	})
}
