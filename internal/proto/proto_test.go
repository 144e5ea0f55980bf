package proto

import (
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"condor/internal/codec"
	"condor/internal/cvm"
	"condor/internal/wire"
)

func TestProgramBlobRoundTrip(t *testing.T) {
	p := cvm.PrimeCountProgram(1000)
	got, err := DecodeProgram(EncodeProgram(p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip changed the program:\n%+v\n%+v", got, p)
	}
	if got.TextChecksum() != p.TextChecksum() {
		t.Fatal("checksum changed across encode/decode")
	}
}

func TestDecodeProgramRejectsGarbage(t *testing.T) {
	if _, err := DecodeProgram([]byte("not a program")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestDecodeProgramValidates(t *testing.T) {
	bad := &cvm.Program{Name: "bad", Text: []cvm.Instr{{Op: cvm.OpJmp, A: 99}}}
	if _, err := DecodeProgram(EncodeProgram(bad)); err == nil {
		t.Fatal("invalid program decoded without error")
	}
}

// connPair joins two wire connections in memory.
func connPair(t *testing.T) (*wire.Conn, *wire.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return wire.NewConn(a), wire.NewConn(b)
}

// send carries msg from one connection to the other.
func send(t *testing.T, from, to *wire.Conn, msg any) any {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- from.Send(wire.Envelope{ID: 1, Kind: wire.KindOneWay, Msg: msg}) }()
	env, err := to.Recv()
	if err != nil {
		t.Fatalf("%T: recv: %v", msg, err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("%T: send: %v", msg, err)
	}
	return env.Msg
}

// TestEveryMessageRoundTrips fills every exported field of every
// registered message, recursively, with distinct non-zero values, and
// requires the value back unchanged from a connection. A field that some
// AppendWire forgets, or that its read function reads out of order,
// fails here.
func TestEveryMessageRoundTrips(t *testing.T) {
	a, b := connPair(t)
	msgs := wire.Registered()
	if len(msgs) < 38 {
		t.Fatalf("%d registered messages; want every proto message", len(msgs))
	}
	for _, zero := range msgs {
		v := reflect.New(reflect.TypeOf(zero)).Elem()
		n := 0
		fill(v, &n)
		got := send(t, a, b, v.Interface())
		if !equal(reflect.ValueOf(got), v) {
			t.Errorf("%T did not round-trip:\n got %+v\nwant %+v", zero, got, v.Interface())
		}
	}
}

var timeType = reflect.TypeOf(time.Time{})

// fill sets every exported field under v to a value no other leaf has.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == timeType {
			v.Set(reflect.ValueOf(time.Unix(int64(1e9+*n), int64(*n)).UTC()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n)
			}
		}
	case reflect.String:
		v.SetString("s" + strconv.Itoa(*n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), n)
		fill(v.Index(1), n)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, n)
			fill(e, n)
			v.SetMapIndex(k, e)
		}
	default:
		panic("fill: no rule for " + v.Type().String())
	}
}

// equal is reflect.DeepEqual with times compared by Equal.
func equal(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Struct:
		if a.Type() == timeType {
			return a.Interface().(time.Time).Equal(b.Interface().(time.Time))
		}
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() && !equal(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equal(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if e := b.MapIndex(k); !e.IsValid() || !equal(a.MapIndex(k), e) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// TestDecodedBytesDoNotAliasTheReadBuffer: a connection reads every
// small frame into one reused buffer, so a decoded byte slice must be a
// copy — the next Recv must not rewrite it.
func TestDecodedBytesDoNotAliasTheReadBuffer(t *testing.T) {
	a, b := connPair(t)
	first := send(t, a, b, SyscallMsg{JobID: "j", Req: cvm.SyscallRequest{Num: cvm.SysWrite, Data: []byte("first")}}).(SyscallMsg)
	send(t, a, b, SyscallMsg{JobID: "j", Req: cvm.SyscallRequest{Num: cvm.SysWrite, Data: []byte("other")}})
	if string(first.Req.Data) != "first" {
		t.Fatalf("first message's Data = %q after the next Recv; it aliases the read buffer", first.Req.Data)
	}
}

// TestRepliesCarryInvalidUTF8: guest output and client-chosen names are
// arbitrary bytes. A job's status comes back byte for byte, and a JSON
// reply naming such a station still decodes.
func TestRepliesCarryInvalidUTF8(t *testing.T) {
	a, b := connPair(t)
	st := JobStatus{ID: "ws1/1", Owner: "al\xffice", State: JobCompleted, Stdout: "out\xff\xfe\n"}
	for _, m := range []any{QueueReply{Station: "ws\xff", Jobs: []JobStatus{st}}, WaitReply{Found: true, Status: st}} {
		if got := send(t, a, b, m); !equal(reflect.ValueOf(got), reflect.ValueOf(m)) {
			t.Errorf("%T changed in transit:\n got %q\nwant %q", m, got, m)
		}
	}
	got := send(t, a, b, PoolStatusReply{Stations: []StationInfo{{Name: "ws\xff"}}}).(PoolStatusReply)
	if len(got.Stations) != 1 || got.Stations[0].Name != "ws�" {
		t.Fatalf("PoolStatusReply = %+v; want one station named %q", got, "ws�")
	}
}

// TestTimeEncoding: the zero time comes back zero, and nanoseconds of
// 1e9 or more are refused, so every accepted time re-encodes to itself.
func TestTimeEncoding(t *testing.T) {
	r := codec.NewReader(appendTime(nil, time.Time{}))
	if got := readTime(&r); !got.IsZero() || r.End() != nil {
		t.Fatalf("zero time came back as %v (%v)", got, r.Err())
	}
	r = codec.NewReader(codec.AppendUint(codec.AppendInt(nil, 0), 1e9))
	readTime(&r)
	if r.End() == nil {
		t.Fatal("a time with 1e9 nanoseconds decoded")
	}
}

func TestStateStrings(t *testing.T) {
	if StationIdle.String() != "idle" || StationSuspended.String() != "suspended" {
		t.Fatal("station state names wrong")
	}
	if !strings.Contains(StationState(42).String(), "42") {
		t.Fatal("unknown station state should include number")
	}
	if JobCompleted.String() != "completed" || JobPlacing.String() != "placing" {
		t.Fatal("job state names wrong")
	}
	if !strings.Contains(JobState(42).String(), "42") {
		t.Fatal("unknown job state should include number")
	}
}

func TestTerminalStates(t *testing.T) {
	for _, s := range []JobState{JobCompleted, JobFaulted, JobRemoved} {
		if !s.Terminal() {
			t.Fatalf("%v should be terminal", s)
		}
	}
	for _, s := range []JobState{JobIdle, JobPlacing, JobRunning, JobSuspendedState} {
		if s.Terminal() {
			t.Fatalf("%v should not be terminal", s)
		}
	}
}
