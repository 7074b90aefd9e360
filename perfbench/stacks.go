package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/federate"
	"repro/internal/replicate"
	"repro/internal/space"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// runEnv is what every stack of one run shares.
type runEnv struct {
	clk  clock
	sink *sink
	tmp  string // scratch directory for journals, removed at the end
	// decideWorkers pins the brokers' decision workers (0 = GOMAXPROCS).
	decideWorkers int
	// tracer, when set, is attached to the brokers with broker.WithTracer.
	tracer *telemetry.Tracer
}

// stack is one running serving stack, reduced to the calls the load
// generator makes. stop drains and stops every goroutine the stack owns;
// afterwards engines may be read.
type stack struct {
	publish     func(workload.Event) (int64, error)
	subscribe   func(workload.Subscription) (int, error)
	unsubscribe func(int) error
	stop        func() error
	engines     []*core.Engine
	tiles       federate.Partition
	reg         *telemetry.Registry
	leader      *replicate.Leader
	router      *federate.Router
}

func startStack(kind stackKind, in *inputs, engines []*core.Engine, env *runEnv, tr *tracer, name string) (*stack, error) {
	switch kind {
	case inproc:
		return startInproc(engines[0], env, tr)
	case wireStack:
		return startWire(engines[0], in.world, env, tr)
	case durablePair:
		return startDurable(engines[0], in.world, env, tr, name)
	case federated:
		return startFederated(engines, in.tiles, env, tr)
	}
	return nil, fmt.Errorf("unknown stack kind %d", kind)
}

// brokerOptions are the options every broker of a run gets: the shared
// registry, the decide-worker pin, and the traced run's decision hook.
func brokerOptions(env *runEnv, reg *telemetry.Registry, tr *tracer, obs func(topology.NodeID, broker.Delivery)) []broker.Option {
	opts := []broker.Option{broker.WithTelemetry(reg), broker.WithObserver(obs)}
	if env.decideWorkers > 0 {
		opts = append(opts, broker.WithDecideWorkers(env.decideWorkers))
	}
	if tr != nil {
		opts = append(opts, broker.WithDecisionObserver(tr.decided))
	}
	if env.tracer != nil {
		opts = append(opts, broker.WithTracer(env.tracer))
	}
	return opts
}

func (env *runEnv) observe(n topology.NodeID, d broker.Delivery) {
	env.sink.deliver(n, d.Seq, d.Interested)
}

// startInproc serves an in-memory broker whose observer is the subscriber
// side.
func startInproc(e *core.Engine, env *runEnv, tr *tracer) (*stack, error) {
	reg := telemetry.NewRegistry()
	b, err := broker.New(e, brokerOptions(env, reg, tr, env.observe)...)
	if err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	return &stack{
		publish:     b.PublishSeq,
		subscribe:   b.Subscribe,
		unsubscribe: b.Unsubscribe,
		stop:        b.Close,
		engines:     []*core.Engine{e},
		reg:         reg,
	}, nil
}

// ownerRect is the interest rectangle the wire subscriber registers for
// each subscriber node so that the server routes the node's copies to its
// session. It lies far outside the event space, so no event matches it
// and the node's interest is exactly its base subscriptions.
func ownerRect(dim int) space.Rect {
	r := make(space.Rect, dim)
	for i := range r {
		r[i] = space.Interval{Lo: 1e12, Hi: 1e12 + 1}
	}
	return r
}

func isOwnerRect(r space.Rect) bool { return len(r) > 0 && r[0].Lo == 1e12 }

// wireBackend starts the broker a wire stack serves, delivering to obs.
// It returns the backend and a function stopping what the server's
// shutdown (which closes the backend) leaves running, or nil.
type wireBackend func(reg *telemetry.Registry, obs func(topology.NodeID, broker.Delivery)) (transport.Backend, func() error, error)

// startWire serves an in-memory broker behind transport.Server on
// loopback. One connection publishes; one owns every subscriber node and
// receives every copy.
func startWire(e *core.Engine, w *workload.World, env *runEnv, tr *tracer) (*stack, error) {
	return startWireOver(e, w, env, tr, func(reg *telemetry.Registry, obs func(topology.NodeID, broker.Delivery)) (transport.Backend, func() error, error) {
		b, err := broker.New(e, brokerOptions(env, reg, tr, obs)...)
		return b, nil, err
	})
}

// startWireDurable serves a replicated durable pair's leader behind the
// wire: the ladder's cumulative wire rung.
func startWireDurable(e *core.Engine, w *workload.World, env *runEnv, tr *tracer) (*stack, error) {
	return startWireOver(e, w, env, tr, func(reg *telemetry.Registry, obs func(topology.NodeID, broker.Delivery)) (transport.Backend, func() error, error) {
		p, err := startPair(e, w, env, reg, tr, obs, "ladder-wire")
		if err != nil {
			return nil, nil, err
		}
		return p.leader.Broker(), p.stop, nil
	})
}

func startWireOver(e *core.Engine, w *workload.World, env *runEnv, tr *tracer, backend wireBackend) (*stack, error) {
	reg := telemetry.NewRegistry()
	srv := transport.NewServer(transport.Config{Registry: reg})
	dispatch := srv.Dispatch
	if tr != nil {
		dispatch = func(n topology.NodeID, d broker.Delivery) {
			t0 := env.clk.now()
			srv.Dispatch(n, d)
			tr.dispatched(n, d.Seq, t0, env.clk.now())
		}
	}
	b, stopRest, err := backend(reg, dispatch)
	if err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	closeAll := func() error {
		err := b.Close()
		if stopRest != nil {
			err = errors.Join(err, stopRest())
		}
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeAll()
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln, b) }()
	cfg := transport.ClientConfig{Addr: ln.Addr().String()}
	sub, err := transport.Dial(cfg)
	if err != nil {
		srv.Close()
		<-served
		closeAll()
		return nil, fmt.Errorf("dial subscriber: %w", err)
	}
	pub, err := transport.Dial(cfg)
	if err != nil {
		sub.Close()
		srv.Close()
		<-served
		closeAll()
		return nil, fmt.Errorf("dial publisher: %w", err)
	}
	received := make(chan struct{})
	go func() {
		defer close(received)
		for {
			d, ok := sub.Recv()
			if !ok {
				return
			}
			env.sink.deliver(d.Node, d.Seq, d.Interested)
		}
	}()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx) // closes the backend after flushing every session
		pub.Close()
		sub.Close()
		<-received
		if serr := <-served; !errors.Is(serr, transport.ErrServerClosed) && err == nil {
			err = serr
		}
		if stopRest != nil {
			err = errors.Join(err, stopRest())
		}
		return err
	}
	for _, n := range w.SubscriberNodes {
		if _, err := sub.Subscribe(n, ownerRect(w.Dim)); err != nil {
			stop()
			return nil, fmt.Errorf("wire subscribe node %d: %w", n, err)
		}
	}
	return &stack{
		publish: pub.PublishSeq,
		subscribe: func(s workload.Subscription) (int, error) {
			slot, err := sub.Subscribe(s.Owner, s.Rect)
			return int(slot), err
		},
		unsubscribe: func(slot int) error { return sub.Unsubscribe(int64(slot)) },
		stop:        stop,
		engines:     []*core.Engine{e},
		reg:         reg,
	}, nil
}

// pair is a running replicated durable pair.
type pair struct {
	leader *replicate.Leader
	stop   func() error
}

// startPair starts replicate.OpenLeader with a follower over loopback,
// both journalling with fsync, and waits for the follower's catch-up.
func startPair(e *core.Engine, w *workload.World, env *runEnv, reg *telemetry.Registry, tr *tracer, obs func(topology.NodeID, broker.Delivery), name string) (*pair, error) {
	dirL := filepath.Join(env.tmp, name, "leader")
	dirF := filepath.Join(env.tmp, name, "follower")
	for _, d := range []string{dirL, dirF} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	ldr, err := replicate.OpenLeader(dirL, e, replicate.LeaderConfig{AckTimeout: 5 * time.Second},
		brokerOptions(env, reg, tr, obs)...)
	if err != nil {
		return nil, fmt.Errorf("leader: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ldr.Close()
		return nil, err
	}
	served := make(chan struct{})
	go func() { defer close(served); ldr.Serve(ln) }()
	flw, err := replicate.StartFollower(replicate.FollowerConfig{
		Dir:  dirF,
		Base: durable.BaseInfo{Hash: durable.HashBase(w.Subs), Count: int64(len(w.Subs))},
		Addr: ln.Addr().String(),
	})
	if err != nil {
		ln.Close()
		<-served
		ldr.Close()
		return nil, fmt.Errorf("follower: %w", err)
	}
	p := &pair{leader: ldr}
	p.stop = func() error {
		ferr := flw.Close()
		lerr := ldr.Close()
		ln.Close()
		<-served
		return errors.Join(lerr, ferr)
	}
	deadline := time.Now().Add(15 * time.Second)
	for !flw.Synced() {
		if time.Now().After(deadline) {
			p.stop()
			return nil, errors.New("follower did not finish its initial catch-up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return p, nil
}

// startDurable serves a replicated durable pair. Publishes and churn go to
// the leader in-process; its observer is the subscriber side.
func startDurable(e *core.Engine, w *workload.World, env *runEnv, tr *tracer, name string) (*stack, error) {
	reg := telemetry.NewRegistry()
	p, err := startPair(e, w, env, reg, tr, env.observe, name)
	if err != nil {
		return nil, err
	}
	ldr := p.leader
	return &stack{
		publish: ldr.DecideSeq,
		subscribe: func(s workload.Subscription) (int, error) {
			return ldr.Apply(broker.Mutation{Subscribe: &s})
		},
		unsubscribe: func(slot int) error { _, err := ldr.Apply(broker.Mutation{Slot: slot}); return err },
		stop:        p.stop,
		engines:     []*core.Engine{e},
		reg:         reg,
		leader:      ldr,
	}, nil
}

// startFederated serves one in-memory broker per tile behind a
// federate.Router, whose observer is the subscriber side.
func startFederated(engines []*core.Engine, tiles federate.Partition, env *runEnv, tr *tracer) (*stack, error) {
	reg := telemetry.NewRegistry()
	r, err := federate.NewRouter(federate.Config{Tiles: tiles, Observer: env.observe})
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	for i, e := range engines {
		feed := r.ShardObserver(i)
		if tr != nil {
			inner := feed
			feed = func(n topology.NodeID, d broker.Delivery) {
				t0 := env.clk.now()
				inner(n, d)
				tr.fed(t0, env.clk.now())
			}
		}
		// Decision hooks would report shard-local seqs; the traced run
		// times the router and its feed instead.
		b, err := broker.New(e, brokerOptions(env, reg, nil, feed)...)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("shard %d broker: %w", i, err)
		}
		if err := r.Attach(i, b); err != nil {
			b.Close()
			r.Close()
			return nil, fmt.Errorf("attach shard %d: %w", i, err)
		}
	}
	publish := r.PublishSeq
	if tr != nil {
		publish = func(ev workload.Event) (int64, error) {
			t0 := env.clk.now()
			seq, err := r.PublishSeq(ev)
			tr.routed(t0, env.clk.now())
			return seq, err
		}
	}
	return &stack{
		publish:     publish,
		subscribe:   r.Subscribe,
		unsubscribe: r.Unsubscribe,
		stop:        r.Close,
		engines:     engines,
		tiles:       tiles,
		reg:         reg,
		router:      r,
	}, nil
}
