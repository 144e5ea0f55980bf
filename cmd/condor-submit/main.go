// Command condor-submit queues a background job at a station. The
// program can be VM assembler source (-file) or one of the built-in
// sample programs (-sample name:param). With -wait it blocks until the
// job finishes and prints its output.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"condor/internal/cvm"
	"condor/internal/proto"
	"condor/internal/wire"
)

func main() {
	var (
		station  = flag.String("station", "127.0.0.1:9620", "station (schedd) address")
		owner    = flag.String("owner", os.Getenv("USER"), "job owner")
		file     = flag.String("file", "", "assembler source file")
		name     = flag.String("name", "", "program name (default: file name)")
		sample   = flag.String("sample", "", "built-in program, e.g. sum:100000, primes:20000, pi:500000, spin:1000000, matmul:40, collatz:5000")
		priority = flag.Int("priority", 0, "local queue priority (higher runs first)")
		wait     = flag.Bool("wait", false, "wait for completion and print output")
		timeout  = flag.Duration("timeout", 10*time.Minute, "wait timeout")
	)
	flag.Parse()
	if err := run(*station, *owner, *file, *name, *sample, *priority, *wait, *timeout); err != nil {
		log.Fatal(err)
	}
}

func buildRequest(owner, file, name, sample string) (proto.SubmitRequest, error) {
	req := proto.SubmitRequest{Owner: owner}
	switch {
	case sample != "":
		prog, err := sampleProgram(sample)
		if err != nil {
			return req, err
		}
		req.ProgramBlob = proto.EncodeProgram(prog)
		req.Name = prog.Name
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return req, err
		}
		req.Source = string(src)
		req.Name = name
		if req.Name == "" {
			req.Name = strings.TrimSuffix(file, ".casm")
		}
	default:
		return req, fmt.Errorf("one of -file or -sample is required")
	}
	return req, nil
}

func sampleProgram(spec string) (*cvm.Program, error) {
	kind, paramStr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("sample spec %q wants name:param", spec)
	}
	param, err := strconv.ParseInt(paramStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("sample param %q: %w", paramStr, err)
	}
	switch kind {
	case "sum":
		return cvm.SumProgram(param), nil
	case "primes":
		return cvm.PrimeCountProgram(param), nil
	case "pi":
		return cvm.MonteCarloPiProgram(param), nil
	case "spin":
		return cvm.SpinProgram(param), nil
	case "matmul":
		return cvm.MatMulProgram(param), nil
	case "collatz":
		return cvm.CollatzProgram(param), nil
	case "randsearch":
		return cvm.RandomSearchProgram(param, 100_000, 70_000), nil
	default:
		return nil, fmt.Errorf("unknown sample %q (want sum, primes, pi, spin, matmul, collatz)", kind)
	}
}

func run(station, owner, file, name, sample string, priority int, wait bool, timeout time.Duration) error {
	req, err := buildRequest(owner, file, name, sample)
	if err != nil {
		return err
	}
	req.Priority = priority
	peer, err := wire.Dial(station, 5*time.Second, nil)
	if err != nil {
		return err
	}
	defer peer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	reply, err := peer.Call(ctx, req)
	cancel()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	sr, ok := reply.(proto.SubmitReply)
	if !ok {
		return fmt.Errorf("unexpected reply %T", reply)
	}
	fmt.Println("submitted", sr.JobID)
	if !wait {
		return nil
	}

	ctx, cancel = context.WithTimeout(context.Background(), timeout)
	defer cancel()
	waitReply, err := peer.Call(ctx, proto.WaitRequest{JobID: sr.JobID})
	if err != nil {
		return fmt.Errorf("wait: %w", err)
	}
	wr, ok := waitReply.(proto.WaitReply)
	if !ok || !wr.Found {
		return fmt.Errorf("job %s vanished", sr.JobID)
	}
	fmt.Printf("state=%s exec=%s cpu=%d checkpoints=%d\n",
		wr.Status.State, wr.Status.ExecHost, wr.Status.CPUSteps, wr.Status.Checkpoints)
	if wr.Status.Stdout != "" {
		fmt.Print(wr.Status.Stdout)
	}
	if wr.Status.FaultMsg != "" {
		return fmt.Errorf("job faulted: %s", wr.Status.FaultMsg)
	}
	return nil
}
