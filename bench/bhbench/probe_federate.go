package main

// Federation layers (federate.go, remote.go, router.go): the fan-out
// and merge over in-process backends, the remote hop against a
// loopback bhserve-shaped server, and the router's handler. They move
// fleet_* and nothing on query-shard.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"

	bh "bgpblackholing"
)

// openShards opens the three shard stores read-only.
func openShards(in *probeInputs) ([]*bh.Store, func(), error) {
	var stores []*bh.Store
	closeAll := func() {
		for _, st := range stores {
			st.Close()
		}
	}
	for _, dir := range in.corp.shards {
		st, err := bh.OpenStoreWith(dir, bh.StoreOptions{ReadOnly: true})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		stores = append(stores, st)
	}
	return stores, closeAll, nil
}

// federationRig is the three shard stores federated in process, plus
// a remote backend pointed at a single-store server.
type federationRig struct {
	fed      *bh.FederatedStore
	remote   *bh.RemoteBackend
	closeAll func()
}

func newFederationRig(in *probeInputs, singleURL string) (*federationRig, error) {
	stores, closeAll, err := openShards(in)
	if err != nil {
		return nil, err
	}
	backends := make([]bh.Backend, len(stores))
	for i, st := range stores {
		backends[i] = bh.NewStoreBackend(st, in.p).WithName(fmt.Sprintf("shard-%d", i))
	}
	r := &federationRig{fed: bh.NewFederatedStore(backends...), closeAll: closeAll}
	if r.remote, err = bh.NewRemoteBackend([]string{singleURL}, bh.RemoteOptions{Name: "probe"}); err != nil {
		closeAll()
		return nil, err
	}
	return r, nil
}

func (r *federationRig) close() {
	r.remote.Close()
	r.closeAll()
}

// federationStages ends the read chain: the same point queries through
// three in-process shard backends, then through one remote backend.
func federationStages(tr *tracer, r *federationRig, k probeKeys) error {
	ctx := context.Background()
	fed, remote := r.fed, r.remote
	var ferr error
	tr.do("federate.records_inproc_lpm", len(k.lpm), func() {
		for _, p := range k.lpm {
			if _, err := fed.Records(ctx, bh.Query{Prefix: p, Mode: bh.PrefixLPM, Limit: pointLimit}); err != nil {
				ferr = err
			}
		}
	})
	if ferr != nil {
		return ferr
	}
	tr.do("remote.records_lpm", len(k.lpm), func() {
		for _, p := range k.lpm {
			if _, err := remote.Records(ctx, bh.Query{Prefix: p, Mode: bh.PrefixLPM, Limit: pointLimit}); err != nil {
				ferr = err
			}
		}
	})
	return ferr
}

// probeFederation covers the federation rows that are not a stage of
// the read chain: the merge of wide answers, the remote NDJSON stream
// and the router's handler over in-process shards.
func probeFederation(tr *tracer, in *probeInputs) error {
	tr.chain = "federation"
	ctx := context.Background()
	k := makeProbeKeys(in)
	stores, closeAll, err := openShards(in)
	if err != nil {
		return err
	}
	defer closeAll()
	single, err := bh.OpenStoreWith(in.corp.single, bh.StoreOptions{ReadOnly: true})
	if err != nil {
		return err
	}
	defer single.Close()
	tr.do("federation.probes", 1, func() {
		backends := make([]bh.Backend, len(stores))
		for i, st := range stores {
			backends[i] = bh.NewStoreBackend(st, in.p).WithName(fmt.Sprintf("shard-%d", i))
		}
		fed := bh.NewFederatedStore(backends...)
		// Wide covered answers make the k-way merge the work.
		merged := 0
		tr.do("federate.merge", 0, func() {
			for _, p := range k.covered {
				rs, rerr := fed.Records(ctx, bh.Query{Prefix: p, Mode: bh.PrefixCovered})
				if rerr != nil {
					err = rerr
					return
				}
				merged += len(rs.Records)
			}
		})
		tr.setOps(merged)
		// The same answers from the store holding everything: the
		// reference the merged count is checked against.
		var one int
		tr.do("federate.single_store_covered", 0, func() {
			be := bh.NewStoreBackend(single, in.p)
			for _, p := range k.covered {
				rs, rerr := be.Records(ctx, bh.Query{Prefix: p, Mode: bh.PrefixCovered})
				if rerr != nil {
					err = rerr
					return
				}
				one += len(rs.Records)
			}
		})
		tr.setOps(one)
		if err == nil && one != merged {
			err = fmt.Errorf("federation probe: shards merged %d records, the single store has %d", merged, one)
		}
		if err != nil {
			return
		}

		srv := httptest.NewServer(bh.NewStoreHandler(single, in.p))
		defer srv.Close()
		remote, rerr := bh.NewRemoteBackend([]string{srv.URL}, bh.RemoteOptions{Name: "probe"})
		if rerr != nil {
			err = rerr
			return
		}
		defer remote.Close()
		streamed := 0
		tr.do("remote.lines", 0, func() {
			for _, w := range k.windows {
				rs, rerr := remote.RecordLines(ctx, bh.Query{From: w[0], To: w[1]})
				if rerr != nil {
					err = rerr
					return
				}
				for {
					rl, nerr := rs.Next()
					if nerr != nil {
						break
					}
					streamed += len(rl.Line) + 1
				}
				rs.Close()
			}
		})
		tr.setOps(streamed)

		router := bh.NewRouterHandler(fed, bh.RouterOptions{})
		tr.do("router.handler_point", len(k.lpm), func() {
			for _, p := range k.lpm {
				rec := httptest.NewRecorder()
				router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, pointPath(p.Addr().String(), "lpm"), nil))
				if rec.Code != http.StatusOK {
					err = fmt.Errorf("router handler: status %d", rec.Code)
				}
			}
		})
	})
	return err
}
