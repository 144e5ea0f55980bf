package ru

import (
	"errors"

	"condor/internal/ckpt"
	"condor/internal/cvm"
)

// neverCalled is a syscall handler for VMs that are snapshotted before
// executing a single instruction.
type neverCalled struct{}

var _ cvm.SyscallHandler = neverCalled{}

// Syscall implements cvm.SyscallHandler.
func (neverCalled) Syscall(cvm.SyscallRequest) (cvm.SyscallReply, error) {
	return cvm.SyscallReply{}, errors.New("ru: syscall before placement")
}

// InitialCheckpoint builds the sequence-zero checkpoint blob for a fresh
// job: a snapshot of the program loaded but not yet started. Placement
// and checkpointing are thereby the same operation with the same cost, as
// in the paper's measurements (5 s/MB for either, §3.1). The home station
// stores the blob as it is and its first placement ships those bytes.
func InitialCheckpoint(meta ckpt.Meta, prog *cvm.Program, stackWords int) ([]byte, error) {
	vm, err := cvm.New(prog, neverCalled{}, cvm.Config{StackWords: stackWords})
	if err != nil {
		return nil, err
	}
	meta.Sequence = 0
	meta.CPUSteps = 0
	if meta.ProgramName == "" {
		meta.ProgramName = prog.Name
	}
	if meta.TextChecksum == "" {
		meta.TextChecksum = prog.TextChecksum()
	}
	return ckpt.EncodeBytesWith(meta, vm.Snapshot(), ckpt.Options{Compress: true})
}
