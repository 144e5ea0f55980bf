package cvm

import (
	"errors"
	"fmt"
)

// Image is the complete serializable execution state of a VM: exactly the
// checkpoint contents §2.3 enumerates (text, data, bss, stack, registers,
// open-file status). There are never unreplied shadow messages in an
// Image because system calls are synchronous.
type Image struct {
	Program  *Program       `json:"program"`
	Mem      []int64        `json:"mem"`
	Stack    []int64        `json:"stack"` // live words only (sp of them)
	Regs     [NumRegs]int64 `json:"regs"`
	PC       int64          `json:"pc"`
	SP       int64          `json:"sp"`
	RNG      uint64         `json:"rng"`
	Steps    uint64         `json:"steps"`
	SysCnt   uint64         `json:"sysCnt"`
	Status   Status         `json:"status"`
	Exit     int64          `json:"exit"`
	Files    []OpenFile     `json:"files"`
	NextFD   int64          `json:"nextFd"`
	StackCap int            `json:"stackCap"`
}

// Snapshot captures the VM state between instructions. The returned Image
// shares nothing with the VM, so the VM may keep running (this is what
// makes the §4 "periodic checkpointing" proposal implementable).
func (v *VM) Snapshot() *Image {
	img := &Image{
		Program:  v.prog, // immutable by contract
		Mem:      append([]int64(nil), v.mem...),
		Stack:    append([]int64(nil), v.stack[:v.sp]...),
		Regs:     v.regs,
		PC:       v.pc,
		SP:       v.sp,
		RNG:      v.rng,
		Steps:    v.steps,
		SysCnt:   v.sysCnt,
		Status:   v.status,
		Exit:     v.exit,
		NextFD:   v.nextFD,
		StackCap: len(v.stack),
	}
	img.Files = v.OpenFiles()
	return img
}

// Validate checks an Image for structural sanity before restoring it.
func (img *Image) Validate() error {
	if img.Program == nil {
		return errors.New("cvm: image has no program")
	}
	if err := img.Program.Validate(); err != nil {
		return fmt.Errorf("cvm: image program: %w", err)
	}
	if len(img.Mem) != img.Program.StaticWords() {
		return fmt.Errorf("cvm: image memory %d words, program wants %d",
			len(img.Mem), img.Program.StaticWords())
	}
	if img.SP != int64(len(img.Stack)) {
		return fmt.Errorf("cvm: image sp=%d but %d stack words saved", img.SP, len(img.Stack))
	}
	if img.StackCap < len(img.Stack) {
		return fmt.Errorf("cvm: image stack capacity %d below live size %d",
			img.StackCap, len(img.Stack))
	}
	if img.StackCap > MaxStackWords {
		return fmt.Errorf("cvm: image stack capacity %d exceeds the %d-word limit",
			img.StackCap, MaxStackWords)
	}
	// A running image's pc may sit just past the text: a program without
	// a final HALT is there after its last instruction, and the restored
	// VM's first fetch faults exactly as the in-place run does.
	if img.Status == StatusRunning && (img.PC < 0 || img.PC > int64(len(img.Program.Text))) {
		return fmt.Errorf("cvm: image pc %d outside text", img.PC)
	}
	seen := make(map[int64]bool, len(img.Files))
	for _, f := range img.Files {
		if seen[f.FD] {
			return fmt.Errorf("cvm: image has duplicate fd %d", f.FD)
		}
		seen[f.FD] = true
		if f.FD >= img.NextFD {
			return fmt.Errorf("cvm: image fd %d >= nextFD %d", f.FD, img.NextFD)
		}
	}
	return nil
}

// Restore reconstructs a VM from an image. The handler is the new host's
// syscall path (after a migration this is a different machine talking to
// the same shadow). The caller is responsible for re-opening the files in
// img.Files on the shadow side; the VM only restores its descriptor table.
func Restore(img *Image, handler SyscallHandler) (*VM, error) {
	if handler == nil {
		return nil, errors.New("cvm: nil syscall handler")
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	v := &VM{
		prog:    img.Program,
		mem:     append([]int64(nil), img.Mem...),
		stack:   make([]int64, img.StackCap),
		regs:    img.Regs,
		pc:      img.PC,
		sp:      img.SP,
		rng:     img.RNG,
		steps:   img.Steps,
		sysCnt:  img.SysCnt,
		status:  img.Status,
		exit:    img.Exit,
		files:   make(map[int64]*OpenFile, len(img.Files)),
		nextFD:  img.NextFD,
		handler: handler,
	}
	copy(v.stack, img.Stack)
	for _, f := range img.Files {
		v.files[f.FD] = &f
	}
	return v, nil
}

// SizeWords returns the image's memory footprint in words (static + live
// stack). The checkpoint cost model (5 s/MB, §3.1) is driven by this.
func (img *Image) SizeWords() int {
	return len(img.Mem) + len(img.Stack) + len(img.Program.Text)*4
}

// SizeBytes returns the approximate serialized size of the image.
func (img *Image) SizeBytes() int64 { return int64(img.SizeWords()) * 8 }
