package proto

import (
	"encoding/json"
	"fmt"
	"time"

	"condor/internal/ckpt"
	"condor/internal/codec"
	"condor/internal/cvm"
	"condor/internal/wire"
)

// Every message is a wire.Message: a tag, and a body of its fields in
// declaration order in internal/codec's encoding, except that a
// checkpoint travels last, so a frame carrying one grows to its size
// once. Five tooling replies (HistoryReply, PoolStatusReply,
// AccountingReply, DecisionsReply, TracesReply) carry their encoding/json
// form instead, the shape condor-web's /api serves: no benchmarked path
// carries them, and their audit, ledger and span trees are not worth a
// second codec. JSON replaces invalid UTF-8 with U+FFFD, so a message carrying
// guest output (JobStatus.Stdout) is hand-encoded like the rest.

// Message tags. Appending to this list is free; renumbering one is a
// wire revision.
const (
	_ byte = iota
	tagSubmitRequest
	tagSubmitReply
	tagQueueRequest
	tagQueueReply
	tagRemoveRequest
	tagRemoveReply
	tagWaitRequest
	tagWaitReply
	tagRegisterRequest
	tagRegisterReply
	tagPollRequest
	tagPollReply
	tagGrantRequest
	tagGrantReply
	tagPreemptRequest
	tagPreemptReply
	tagReserveRequest
	tagReserveReply
	tagCancelReservationRequest
	tagCancelReservationReply
	tagHistoryRequest
	tagHistoryReply
	tagPoolStatusRequest
	tagPoolStatusReply
	tagAccountingRequest
	tagAccountingReply
	tagDecisionsRequest
	tagDecisionsReply
	tagPlaceRequest
	tagPlaceReply
	tagSyscallMsg
	tagSyscallReplyMsg
	tagJobDoneMsg
	tagJobVacatedMsg
	tagJobCheckpointMsg
	tagJobSuspendedMsg
	tagJobResumedMsg
	tagAck
	tagTracesRequest
	tagTracesReply
)

// Message types are registered with the wire at package load. This is
// one of the sanctioned init uses (an encoding type registry):
// deterministic, no I/O, no environment access.
func init() {
	for _, m := range []struct {
		zero wire.Message
		read func(*codec.Reader) wire.Message
	}{
		{SubmitRequest{}, readSubmitRequest},
		{SubmitReply{}, func(r *codec.Reader) wire.Message { return SubmitReply{JobID: r.ReadString()} }},
		{QueueRequest{}, func(*codec.Reader) wire.Message { return QueueRequest{} }},
		{QueueReply{}, readQueueReply},
		{RemoveRequest{}, func(r *codec.Reader) wire.Message { return RemoveRequest{JobID: r.ReadString()} }},
		{RemoveReply{}, func(r *codec.Reader) wire.Message { return RemoveReply{Removed: r.ReadBool()} }},
		{WaitRequest{}, func(r *codec.Reader) wire.Message { return WaitRequest{JobID: r.ReadString()} }},
		{WaitReply{}, func(r *codec.Reader) wire.Message {
			return WaitReply{Found: r.ReadBool(), Status: readJobStatus(r)}
		}},
		{RegisterRequest{}, func(r *codec.Reader) wire.Message {
			return RegisterRequest{Name: r.ReadString(), Addr: r.ReadString()}
		}},
		{RegisterReply{}, func(r *codec.Reader) wire.Message {
			return RegisterReply{OK: r.ReadBool(), PollIntervalMillis: r.ReadInt()}
		}},
		{PollRequest{}, func(*codec.Reader) wire.Message { return PollRequest{} }},
		{PollReply{}, readPollReply},
		{GrantRequest{}, func(r *codec.Reader) wire.Message {
			return GrantRequest{ExecName: r.ReadString(), ExecAddr: r.ReadString(), ReplyWithinMillis: r.ReadInt()}
		}},
		{GrantReply{}, func(r *codec.Reader) wire.Message {
			return GrantReply{Used: r.ReadBool(), JobID: r.ReadString(), Reason: r.ReadString(), Trace: r.ReadString()}
		}},
		{PreemptRequest{}, func(r *codec.Reader) wire.Message {
			return PreemptRequest{JobID: r.ReadString(), Reason: r.ReadString()}
		}},
		{PreemptReply{}, func(r *codec.Reader) wire.Message { return PreemptReply{Vacating: r.ReadBool()} }},
		{ReserveRequest{}, func(r *codec.Reader) wire.Message {
			return ReserveRequest{Station: r.ReadString(), Holder: r.ReadString(), DurationMillis: r.ReadInt()}
		}},
		{ReserveReply{}, func(r *codec.Reader) wire.Message {
			return ReserveReply{OK: r.ReadBool(), Reason: r.ReadString(), UntilUnixMillis: r.ReadInt()}
		}},
		{CancelReservationRequest{}, func(r *codec.Reader) wire.Message {
			return CancelReservationRequest{Station: r.ReadString()}
		}},
		{CancelReservationReply{}, func(r *codec.Reader) wire.Message {
			return CancelReservationReply{Cancelled: r.ReadBool()}
		}},
		{HistoryRequest{}, func(r *codec.Reader) wire.Message {
			return HistoryRequest{JobID: r.ReadString(), Limit: int(r.ReadInt()), TraceID: r.ReadString()}
		}},
		{HistoryReply{}, func(r *codec.Reader) wire.Message { return readJSON(r, &HistoryReply{}) }},
		{PoolStatusRequest{}, func(*codec.Reader) wire.Message { return PoolStatusRequest{} }},
		{PoolStatusReply{}, func(r *codec.Reader) wire.Message { return readJSON(r, &PoolStatusReply{}) }},
		{AccountingRequest{}, func(*codec.Reader) wire.Message { return AccountingRequest{} }},
		{AccountingReply{}, func(r *codec.Reader) wire.Message { return readJSON(r, &AccountingReply{}) }},
		{DecisionsRequest{}, func(r *codec.Reader) wire.Message {
			return DecisionsRequest{Job: r.ReadString(), Station: r.ReadString(), Cycle: r.ReadInt(), Last: int(r.ReadInt())}
		}},
		{DecisionsReply{}, func(r *codec.Reader) wire.Message { return readJSON(r, &DecisionsReply{}) }},
		{PlaceRequest{}, func(r *codec.Reader) wire.Message {
			return PlaceRequest{JobID: r.ReadString(), Owner: r.ReadString(), HomeHost: r.ReadString(), Checkpoint: r.ReadBytes()}
		}},
		{PlaceReply{}, func(r *codec.Reader) wire.Message {
			return PlaceReply{Accepted: r.ReadBool(), Reason: r.ReadString()}
		}},
		{SyscallMsg{}, readSyscallMsg},
		{SyscallReplyMsg{}, func(r *codec.Reader) wire.Message {
			return SyscallReplyMsg{Rep: cvm.SyscallReply{Ret: r.ReadInt(), Errno: r.ReadInt(), Data: r.ReadBytes()}}
		}},
		{JobDoneMsg{}, readJobDoneMsg},
		{JobVacatedMsg{}, func(r *codec.Reader) wire.Message {
			return JobVacatedMsg{JobID: r.ReadString(), Reason: r.ReadString(), Steps: r.ReadUint(), Checkpoint: r.ReadBytes()}
		}},
		{JobCheckpointMsg{}, func(r *codec.Reader) wire.Message {
			return JobCheckpointMsg{JobID: r.ReadString(), Steps: r.ReadUint(), Checkpoint: r.ReadBytes()}
		}},
		{JobSuspendedMsg{}, func(r *codec.Reader) wire.Message { return JobSuspendedMsg{JobID: r.ReadString()} }},
		{JobResumedMsg{}, func(r *codec.Reader) wire.Message { return JobResumedMsg{JobID: r.ReadString()} }},
		{Ack{}, func(*codec.Reader) wire.Message { return Ack{} }},
		{TracesRequest{}, func(r *codec.Reader) wire.Message {
			return TracesRequest{TraceID: r.ReadString(), JobID: r.ReadString()}
		}},
		{TracesReply{}, func(r *codec.Reader) wire.Message { return readJSON(r, &TracesReply{}) }},
	} {
		wire.Register(m.zero, m.read)
	}
}

// A read function reads its fields in the order AppendWire writes them:
// the operands of a composite literal are evaluated left to right.

func (m SubmitRequest) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.Owner)
	b = codec.AppendString(b, m.Source)
	b = codec.AppendString(b, m.Name)
	b = codec.AppendBytes(b, m.ProgramBlob)
	b = codec.AppendInt(b, int64(m.StackWords))
	return codec.AppendInt(b, int64(m.Priority))
}

func readSubmitRequest(r *codec.Reader) wire.Message {
	return SubmitRequest{Owner: r.ReadString(), Source: r.ReadString(), Name: r.ReadString(),
		ProgramBlob: r.ReadBytes(), StackWords: int(r.ReadInt()), Priority: int(r.ReadInt())}
}

func (m SubmitReply) AppendWire(b []byte) []byte     { return codec.AppendString(b, m.JobID) }
func (QueueRequest) AppendWire(b []byte) []byte      { return b }
func (m RemoveRequest) AppendWire(b []byte) []byte   { return codec.AppendString(b, m.JobID) }
func (m RemoveReply) AppendWire(b []byte) []byte     { return codec.AppendBool(b, m.Removed) }
func (m WaitRequest) AppendWire(b []byte) []byte     { return codec.AppendString(b, m.JobID) }
func (PollRequest) AppendWire(b []byte) []byte       { return b }
func (m PreemptReply) AppendWire(b []byte) []byte    { return codec.AppendBool(b, m.Vacating) }
func (m HistoryReply) AppendWire(b []byte) []byte    { return appendJSON(b, m) }
func (PoolStatusRequest) AppendWire(b []byte) []byte { return b }
func (m PoolStatusReply) AppendWire(b []byte) []byte { return appendJSON(b, m) }
func (AccountingRequest) AppendWire(b []byte) []byte { return b }
func (m AccountingReply) AppendWire(b []byte) []byte { return appendJSON(b, m) }
func (m DecisionsReply) AppendWire(b []byte) []byte  { return appendJSON(b, m) }
func (m TracesReply) AppendWire(b []byte) []byte     { return appendJSON(b, m) }
func (m JobSuspendedMsg) AppendWire(b []byte) []byte { return codec.AppendString(b, m.JobID) }
func (m JobResumedMsg) AppendWire(b []byte) []byte   { return codec.AppendString(b, m.JobID) }
func (Ack) AppendWire(b []byte) []byte               { return b }

func (m QueueReply) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.Station)
	b = codec.AppendUint(b, uint64(len(m.Jobs)))
	for i := range m.Jobs {
		b = appendJobStatus(b, &m.Jobs[i])
	}
	return b
}

func readQueueReply(r *codec.Reader) wire.Message {
	m := QueueReply{Station: r.ReadString()}
	if n := r.ReadCount(jobStatusMinBytes); n > 0 {
		m.Jobs = make([]JobStatus, n)
		for i := range m.Jobs {
			m.Jobs[i] = readJobStatus(r)
		}
	}
	return m
}

func (m WaitReply) AppendWire(b []byte) []byte {
	return appendJobStatus(codec.AppendBool(b, m.Found), &m.Status)
}

// jobStatusMinBytes is the shortest JobStatus encoding: one byte per
// field, two per time.
const jobStatusMinBytes = 16

func appendJobStatus(b []byte, s *JobStatus) []byte {
	b = codec.AppendString(b, s.ID)
	b = codec.AppendString(b, s.Owner)
	b = codec.AppendString(b, s.Program)
	b = codec.AppendInt(b, int64(s.State))
	b = appendTime(b, s.SubmittedAt)
	b = codec.AppendUint(b, s.CPUSteps)
	b = codec.AppendString(b, s.ExecHost)
	b = codec.AppendInt(b, int64(s.Checkpoints))
	b = codec.AppendInt(b, int64(s.Placements))
	b = codec.AppendInt(b, int64(s.Priority))
	b = codec.AppendInt(b, s.ExitCode)
	b = codec.AppendString(b, s.FaultMsg)
	b = codec.AppendString(b, s.Stdout)
	return appendTime(b, s.WaitingSince)
}

func readJobStatus(r *codec.Reader) JobStatus {
	return JobStatus{ID: r.ReadString(), Owner: r.ReadString(), Program: r.ReadString(),
		State: JobState(r.ReadInt()), SubmittedAt: readTime(r), CPUSteps: r.ReadUint(),
		ExecHost: r.ReadString(), Checkpoints: int(r.ReadInt()), Placements: int(r.ReadInt()),
		Priority: int(r.ReadInt()), ExitCode: r.ReadInt(), FaultMsg: r.ReadString(),
		Stdout: r.ReadString(), WaitingSince: readTime(r)}
}

// appendTime appends t as Unix seconds and nanoseconds; the zero time
// comes back IsZero. The location is not carried.
func appendTime(b []byte, t time.Time) []byte {
	return codec.AppendUint(codec.AppendInt(b, t.Unix()), uint64(t.Nanosecond()))
}

func readTime(r *codec.Reader) time.Time {
	sec, nsec := r.ReadInt(), r.ReadUint()
	if nsec >= 1e9 {
		r.Fail("nanoseconds out of range")
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec))
}

func (m CancelReservationRequest) AppendWire(b []byte) []byte {
	return codec.AppendString(b, m.Station)
}

func (m CancelReservationReply) AppendWire(b []byte) []byte {
	return codec.AppendBool(b, m.Cancelled)
}

func (m RegisterRequest) AppendWire(b []byte) []byte {
	return codec.AppendString(codec.AppendString(b, m.Name), m.Addr)
}

func (m RegisterReply) AppendWire(b []byte) []byte {
	return codec.AppendInt(codec.AppendBool(b, m.OK), m.PollIntervalMillis)
}

func (m PollReply) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.Name)
	b = codec.AppendInt(b, int64(m.State))
	b = codec.AppendInt(b, int64(m.WaitingJobs))
	b = codec.AppendString(b, m.ForeignJob)
	b = codec.AppendString(b, m.ForeignOwnerStation)
	b = codec.AppendInt(b, m.DiskFreeBytes)
	b = codec.AppendInt(b, m.IdleStreakMillis)
	return codec.AppendInt(b, m.AvgIdleMillis)
}

func readPollReply(r *codec.Reader) wire.Message {
	return PollReply{Name: r.ReadString(), State: StationState(r.ReadInt()), WaitingJobs: int(r.ReadInt()),
		ForeignJob: r.ReadString(), ForeignOwnerStation: r.ReadString(),
		DiskFreeBytes: r.ReadInt(), IdleStreakMillis: r.ReadInt(), AvgIdleMillis: r.ReadInt()}
}

func (m GrantRequest) AppendWire(b []byte) []byte {
	b = codec.AppendString(codec.AppendString(b, m.ExecName), m.ExecAddr)
	return codec.AppendInt(b, m.ReplyWithinMillis)
}

func (m GrantReply) AppendWire(b []byte) []byte {
	b = codec.AppendBool(b, m.Used)
	b = codec.AppendString(b, m.JobID)
	b = codec.AppendString(b, m.Reason)
	return codec.AppendString(b, m.Trace)
}

func (m PreemptRequest) AppendWire(b []byte) []byte {
	return codec.AppendString(codec.AppendString(b, m.JobID), m.Reason)
}

func (m ReserveRequest) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.Station)
	b = codec.AppendString(b, m.Holder)
	return codec.AppendInt(b, m.DurationMillis)
}

func (m ReserveReply) AppendWire(b []byte) []byte {
	b = codec.AppendBool(b, m.OK)
	b = codec.AppendString(b, m.Reason)
	return codec.AppendInt(b, m.UntilUnixMillis)
}

func (m HistoryRequest) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.JobID)
	b = codec.AppendInt(b, int64(m.Limit))
	return codec.AppendString(b, m.TraceID)
}

func (m DecisionsRequest) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.Job)
	b = codec.AppendString(b, m.Station)
	b = codec.AppendInt(b, m.Cycle)
	return codec.AppendInt(b, int64(m.Last))
}

func (m TracesRequest) AppendWire(b []byte) []byte {
	return codec.AppendString(codec.AppendString(b, m.TraceID), m.JobID)
}

func (m PlaceRequest) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.JobID)
	b = codec.AppendString(b, m.Owner)
	b = codec.AppendString(b, m.HomeHost)
	return codec.AppendBytes(b, m.Checkpoint)
}

func (m PlaceReply) AppendWire(b []byte) []byte {
	return codec.AppendString(codec.AppendBool(b, m.Accepted), m.Reason)
}

func (m SyscallMsg) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.JobID)
	b = codec.AppendInt(b, m.Req.Num)
	for _, a := range m.Req.Args {
		b = codec.AppendInt(b, a)
	}
	b = codec.AppendBytes(b, m.Req.Data)
	return codec.AppendString(b, m.Req.Name)
}

func readSyscallMsg(r *codec.Reader) wire.Message {
	return SyscallMsg{JobID: r.ReadString(), Req: cvm.SyscallRequest{Num: r.ReadInt(),
		Args: [4]int64{r.ReadInt(), r.ReadInt(), r.ReadInt(), r.ReadInt()},
		Data: r.ReadBytes(), Name: r.ReadString()}}
}

func (m SyscallReplyMsg) AppendWire(b []byte) []byte {
	b = codec.AppendInt(b, m.Rep.Ret)
	b = codec.AppendInt(b, m.Rep.Errno)
	return codec.AppendBytes(b, m.Rep.Data)
}

func (m JobDoneMsg) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.JobID)
	b = codec.AppendInt(b, m.ExitCode)
	b = codec.AppendUint(b, m.Steps)
	b = codec.AppendUint(b, m.Syscalls)
	b = codec.AppendBool(b, m.Faulted)
	return codec.AppendString(b, m.FaultMsg)
}

func readJobDoneMsg(r *codec.Reader) wire.Message {
	return JobDoneMsg{JobID: r.ReadString(), ExitCode: r.ReadInt(), Steps: r.ReadUint(),
		Syscalls: r.ReadUint(), Faulted: r.ReadBool(), FaultMsg: r.ReadString()}
}

func (m JobVacatedMsg) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.JobID)
	b = codec.AppendString(b, m.Reason)
	b = codec.AppendUint(b, m.Steps)
	return codec.AppendBytes(b, m.Checkpoint)
}

func (m JobCheckpointMsg) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.JobID)
	b = codec.AppendUint(b, m.Steps)
	return codec.AppendBytes(b, m.Checkpoint)
}

// appendJSON appends v's encoding/json form as a byte string.
func appendJSON(b []byte, v any) []byte {
	js, _ := json.Marshal(v)
	return codec.AppendBytes(b, js)
}

// readJSON reads appendJSON's body into *v and returns *v.
func readJSON[T any](r *codec.Reader, v *T) T {
	js := r.ReadBytes()
	if r.Err() != nil {
		return *v
	}
	if err := json.Unmarshal(js, v); err != nil {
		r.Fail("json body: " + err.Error())
	}
	return *v
}

// EncodeProgram encodes a program for SubmitRequest.ProgramBlob: the
// Program section of a checkpoint body (see internal/ckpt).
func EncodeProgram(p *cvm.Program) []byte { return ckpt.AppendProgram(nil, p) }

// DecodeProgram decodes SubmitRequest.ProgramBlob and validates the
// program.
func DecodeProgram(blob []byte) (*cvm.Program, error) {
	r := codec.NewReader(blob)
	p := ckpt.ReadProgram(&r)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("proto: decode program: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (SubmitRequest) WireTag() byte            { return tagSubmitRequest }
func (SubmitReply) WireTag() byte              { return tagSubmitReply }
func (QueueRequest) WireTag() byte             { return tagQueueRequest }
func (QueueReply) WireTag() byte               { return tagQueueReply }
func (RemoveRequest) WireTag() byte            { return tagRemoveRequest }
func (RemoveReply) WireTag() byte              { return tagRemoveReply }
func (WaitRequest) WireTag() byte              { return tagWaitRequest }
func (WaitReply) WireTag() byte                { return tagWaitReply }
func (RegisterRequest) WireTag() byte          { return tagRegisterRequest }
func (RegisterReply) WireTag() byte            { return tagRegisterReply }
func (PollRequest) WireTag() byte              { return tagPollRequest }
func (PollReply) WireTag() byte                { return tagPollReply }
func (GrantRequest) WireTag() byte             { return tagGrantRequest }
func (GrantReply) WireTag() byte               { return tagGrantReply }
func (PreemptRequest) WireTag() byte           { return tagPreemptRequest }
func (PreemptReply) WireTag() byte             { return tagPreemptReply }
func (ReserveRequest) WireTag() byte           { return tagReserveRequest }
func (ReserveReply) WireTag() byte             { return tagReserveReply }
func (CancelReservationRequest) WireTag() byte { return tagCancelReservationRequest }
func (CancelReservationReply) WireTag() byte   { return tagCancelReservationReply }
func (HistoryRequest) WireTag() byte           { return tagHistoryRequest }
func (HistoryReply) WireTag() byte             { return tagHistoryReply }
func (PoolStatusRequest) WireTag() byte        { return tagPoolStatusRequest }
func (PoolStatusReply) WireTag() byte          { return tagPoolStatusReply }
func (AccountingRequest) WireTag() byte        { return tagAccountingRequest }
func (AccountingReply) WireTag() byte          { return tagAccountingReply }
func (DecisionsRequest) WireTag() byte         { return tagDecisionsRequest }
func (DecisionsReply) WireTag() byte           { return tagDecisionsReply }
func (PlaceRequest) WireTag() byte             { return tagPlaceRequest }
func (PlaceReply) WireTag() byte               { return tagPlaceReply }
func (SyscallMsg) WireTag() byte               { return tagSyscallMsg }
func (SyscallReplyMsg) WireTag() byte          { return tagSyscallReplyMsg }
func (JobDoneMsg) WireTag() byte               { return tagJobDoneMsg }
func (JobVacatedMsg) WireTag() byte            { return tagJobVacatedMsg }
func (JobCheckpointMsg) WireTag() byte         { return tagJobCheckpointMsg }
func (JobSuspendedMsg) WireTag() byte          { return tagJobSuspendedMsg }
func (JobResumedMsg) WireTag() byte            { return tagJobResumedMsg }
func (Ack) WireTag() byte                      { return tagAck }
func (TracesRequest) WireTag() byte            { return tagTracesRequest }
func (TracesReply) WireTag() byte              { return tagTracesReply }
