package web

import (
	"context"
	"fmt"
	"time"

	"condor/internal/eventlog"
	"condor/internal/proto"
	"condor/internal/wire"
)

// Client is the dashboard's aggregation client: pooled, deadline-bounded
// wire RPCs against the coordinator (pool table, accounting, decision
// history, spans) and the stations it names (queue contents).
// condor-web's refresh loop and condor-status -watch both ride it
// instead of paying a fresh dial per refresh.
type Client struct {
	coord string
	pool  *wire.ClientPool
}

// rpcTimeout bounds one aggregation RPC end-to-end.
const rpcTimeout = 5 * time.Second

// NewClient creates a client aggregating from the coordinator at
// coordAddr (its wire address, not its -http one).
func NewClient(coordAddr string) *Client {
	return &Client{
		coord: coordAddr,
		pool:  wire.NewClientPool(wire.PoolConfig{DialTimeout: 3 * time.Second}),
	}
}

// Close releases the pooled connections.
func (c *Client) Close() { c.pool.Close() }

// CoordinatorAddr returns the coordinator wire address this client
// aggregates from.
func (c *Client) CoordinatorAddr() string { return c.coord }

func (c *Client) call(ctx context.Context, addr string, msg any) (any, error) {
	ctx, cancel := context.WithTimeout(ctx, rpcTimeout)
	defer cancel()
	return c.pool.CallRetry(ctx, addr, msg)
}

// PoolStatus fetches the coordinator's pool table and self-description.
func (c *Client) PoolStatus(ctx context.Context) (proto.PoolStatusReply, error) {
	reply, err := c.call(ctx, c.coord, proto.PoolStatusRequest{})
	if err != nil {
		return proto.PoolStatusReply{}, err
	}
	sr, ok := reply.(proto.PoolStatusReply)
	if !ok {
		return proto.PoolStatusReply{}, fmt.Errorf("web: unexpected pool status reply %T", reply)
	}
	return sr, nil
}

// Accounting fetches the coordinator's ledgers.
func (c *Client) Accounting(ctx context.Context) (proto.AccountingReply, error) {
	reply, err := c.call(ctx, c.coord, proto.AccountingRequest{})
	if err != nil {
		return proto.AccountingReply{}, err
	}
	ar, ok := reply.(proto.AccountingReply)
	if !ok {
		return proto.AccountingReply{}, fmt.Errorf("web: unexpected accounting reply %T", reply)
	}
	return ar, nil
}

// History fetches the coordinator's recent decision events.
func (c *Client) History(ctx context.Context, limit int) ([]eventlog.Event, error) {
	reply, err := c.call(ctx, c.coord, proto.HistoryRequest{Limit: limit})
	if err != nil {
		return nil, err
	}
	hr, ok := reply.(proto.HistoryReply)
	if !ok {
		return nil, fmt.Errorf("web: unexpected history reply %T", reply)
	}
	return hr.Events, nil
}

// Decisions fetches the coordinator's scheduling decision audits,
// filtered server-side (see proto.DecisionsRequest for the filter
// semantics).
func (c *Client) Decisions(ctx context.Context, job, station string, cycle int64, last int) (proto.DecisionsReply, error) {
	reply, err := c.call(ctx, c.coord, proto.DecisionsRequest{
		Job: job, Station: station, Cycle: cycle, Last: last,
	})
	if err != nil {
		return proto.DecisionsReply{}, err
	}
	dr, ok := reply.(proto.DecisionsReply)
	if !ok {
		return proto.DecisionsReply{}, fmt.Errorf("web: unexpected decisions reply %T", reply)
	}
	return dr, nil
}

// Traces fetches the spans the coordinator's process recorded, filtered
// server-side (see proto.TracesRequest).
func (c *Client) Traces(ctx context.Context, traceID, job string) (proto.TracesReply, error) {
	reply, err := c.call(ctx, c.coord, proto.TracesRequest{TraceID: traceID, JobID: job})
	if err != nil {
		return proto.TracesReply{}, err
	}
	tr, ok := reply.(proto.TracesReply)
	if !ok {
		return proto.TracesReply{}, fmt.Errorf("web: unexpected traces reply %T", reply)
	}
	return tr, nil
}

// StationQueue fetches one station's job queue by its wire address.
func (c *Client) StationQueue(ctx context.Context, addr string) (proto.QueueReply, error) {
	reply, err := c.call(ctx, addr, proto.QueueRequest{})
	if err != nil {
		return proto.QueueReply{}, err
	}
	qr, ok := reply.(proto.QueueReply)
	if !ok {
		return proto.QueueReply{}, fmt.Errorf("web: unexpected queue reply %T", reply)
	}
	return qr, nil
}

// Jobs aggregates every station's queue into one table, stations in
// the given pool-table order. Unreachable stations are skipped (their
// jobs will reappear next refresh); the returned error is non-nil only
// when every station failed.
func (c *Client) Jobs(ctx context.Context, stations []proto.StationInfo) ([]JobRow, error) {
	var rows []JobRow
	var firstErr error
	failed := 0
	for _, s := range stations {
		qr, err := c.StationQueue(ctx, s.Addr)
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("station %s: %w", s.Name, err)
			}
			continue
		}
		for _, j := range qr.Jobs {
			rows = append(rows, JobRow{Station: qr.Station, Status: j})
		}
	}
	if failed > 0 && failed == len(stations) && firstErr != nil {
		return nil, firstErr
	}
	return rows, nil
}

// JobRow is one aggregated job-table row.
type JobRow struct {
	Station string          `json:"station"`
	Status  proto.JobStatus `json:"status"`
}
