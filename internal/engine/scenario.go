package engine

import (
	"fmt"
	"sync"
	"time"

	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/partition"
	"github.com/pardon-feddg/pardon/internal/rng"
	"github.com/pardon-feddg/pardon/internal/synth"
)

// Scenario is a fully built federated experiment: environment, clients,
// and evaluation sets. Clients are read-only during training, so one
// Scenario is shared by every method (and every concurrent job)
// evaluated on the same data — matching the paper's methodology of
// identical data across compared methods.
type Scenario struct {
	Env     *fl.Env
	Clients []*fl.Client
	Val     *fl.EvalSet
	Test    *fl.EvalSet
	// Gen is the corpus generator the scenario was built from (domain
	// names, class count).
	Gen *synth.Generator
}

// buildScenario assembles the Scenario a Spec describes. Every stochastic
// choice derives from the Spec's seeds through named rng streams, so
// equal Specs build bit-identical scenarios.
func buildScenario(spec Spec, parallelism int) (*Scenario, error) {
	genCfg, err := spec.genConfig()
	if err != nil {
		return nil, err
	}
	gen, err := synth.New(genCfg)
	if err != nil {
		return nil, err
	}
	enc, err := encoder.New(encoder.DefaultConfig())
	if err != nil {
		return nil, err
	}
	c, h, w := enc.OutShape()
	env := &fl.Env{
		Enc: enc,
		// Spec.Hidden sweeps the extractor depth; empty keeps the
		// default single hidden layer.
		ModelCfg:    nn.Config{In: c * h * w, Hidden: defaultHiddenWidth, ZDim: 32, Classes: gen.Config().NumClasses, HiddenDims: spec.Hidden},
		Hyper:       fl.DefaultHyper(),
		RNG:         rng.New(spec.Seed).Child("scenario", spec.Tag),
		Parallelism: parallelism,
	}

	// Every domain draws its own named rng stream, so the train domains
	// and the val/test corpora generate as one fan-out, in any order.
	type corpus struct {
		domain, n int
		tag       string
	}
	var corpora []corpus
	add := func(domains []int, n int, tag string) {
		for _, d := range domains {
			corpora = append(corpora, corpus{d, n, spec.Tag + tag})
		}
	}
	add(spec.Split.Train, spec.PerDomain, "-train")
	add(spec.Split.Val, spec.EvalPer, "-val")
	add(spec.Split.Test, spec.EvalPer, "-test")
	dss := make([]*dataset.Dataset, len(corpora))
	if err := env.ForEach(len(corpora), func(_, i int) error {
		var err error
		dss[i], err = gen.GenerateDomain(corpora[i].domain, corpora[i].n, corpora[i].tag)
		return err
	}); err != nil {
		return nil, err
	}
	nTrain, nVal := len(spec.Split.Train), len(spec.Split.Val)
	trainDomains := dss[:nTrain]
	if err := env.Calibrate(64, trainDomains...); err != nil {
		return nil, err
	}

	parts, err := partition.PartitionByDomain(trainDomains,
		partition.Options{NumClients: spec.Clients, Lambda: spec.Lambda}, env.RNG.Stream("partition"))
	if err != nil {
		return nil, err
	}
	clients, err := fl.NewClients(env, parts)
	if err != nil {
		return nil, err
	}

	// Every run on the scenario starts from the same drawn weights.
	if err := env.DrawInit(); err != nil {
		return nil, err
	}
	sc := &Scenario{Env: env, Clients: clients, Gen: gen}
	if sc.Val, err = newEvalSet(env, dss[nTrain:nTrain+nVal]); err != nil {
		return nil, err
	}
	if sc.Test, err = newEvalSet(env, dss[nTrain+nVal:]); err != nil {
		return nil, err
	}
	return sc, nil
}

// newEvalSet merges an evaluation split's generated domains and encodes
// them; an empty split has no set.
func newEvalSet(env *fl.Env, dss []*dataset.Dataset) (*fl.EvalSet, error) {
	if len(dss) == 0 {
		return nil, nil
	}
	ds, err := dataset.Merge(dss...)
	if err != nil {
		return nil, err
	}
	return fl.NewEvalSet(env, ds)
}

// scenarioEntry is one cache slot; ready is closed once sc/err are set.
type scenarioEntry struct {
	ready chan struct{}
	sc    *Scenario
	err   error
	last  int64
}

// scenarioCache memoizes built scenarios by scenario content-address so
// a sweep of many methods over the same data encodes it once, with
// singleflight semantics for concurrent jobs. A built scenario stays
// resident only while queued work needs it: on a miss the cache evicts
// the least-recently-used built scenarios that no queued or running job
// of the engine wants, until at most one per pool slot remains. Past
// maxResidentScenarios it evicts wanted ones too, so a queue of many
// distinct scenarios cannot keep them all. Evicted scenarios stay valid
// for jobs still holding them; they are simply rebuilt on the next
// request.
type scenarioCache struct {
	metrics *engineMetrics
	// slots is the engine's pool size, at least 1: how many scenarios
	// the cache keeps once no job wants the others.
	slots int
	// wanted returns the scenario keys of the engine's queued and
	// running jobs (Scheduler.scenariosWanted).
	wanted func() map[string]bool

	mu  sync.Mutex
	seq int64
	m   map[string]*scenarioEntry
}

// maxResidentScenarios bounds the built scenarios the cache holds
// whatever the queue wants (about 10 MB each at Table-I size); entries
// still building may exceed it.
const maxResidentScenarios = 4

func newScenarioCache(m *engineMetrics, slots int, wanted func() map[string]bool) *scenarioCache {
	return &scenarioCache{metrics: m, slots: slots, wanted: wanted, m: map[string]*scenarioEntry{}}
}

// get returns the Scenario for a Spec, building it at most once per
// resident cache entry. hit reports that this call did not build it: a
// lookup that waits on another job's in-flight build is a hit.
func (c *scenarioCache) get(spec Spec, parallelism int) (sc *Scenario, hit bool, err error) {
	key, err := spec.scenarioKey()
	if err != nil {
		return nil, false, fmt.Errorf("engine: scenario key: %w", err)
	}
	e, build := c.lookup(key)
	if !build {
		c.metrics.scenarioLookup.With("hit").Inc()
		<-e.ready
		return e.sc, true, e.err
	}
	c.metrics.scenarioLookup.With("miss").Inc()

	start := time.Now()
	e.sc, e.err = buildScenario(spec, parallelism)
	c.metrics.scenarioBuild.Observe(time.Since(start).Seconds())
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		if c.m[key] == e {
			delete(c.m, key)
		}
		c.metrics.scenariosResident.Set(int64(len(c.m)))
		c.mu.Unlock()
	}
	return e.sc, false, e.err
}

// lookup returns key's entry and marks it used. On a miss it inserts a
// new entry, evicts for it and reports build: the caller must build
// the scenario and close the entry's ready channel. Eviction runs
// before the build, so the old data is freed before the new allocates.
func (c *scenarioCache) lookup(key string) (e *scenarioEntry, build bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	if e, ok := c.m[key]; ok {
		e.last = c.seq
		return e, false
	}
	// The wanted set takes the scheduler's lock, so it is read with the
	// cache's released; another job may insert key meanwhile.
	c.mu.Unlock()
	wanted := c.wanted()
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		e.last = c.seq
		return e, false
	}
	e = &scenarioEntry{ready: make(chan struct{}), last: c.seq}
	c.m[key] = e
	c.shrinkLocked(c.slots, wanted)
	c.shrinkLocked(maxResidentScenarios, nil)
	c.metrics.scenariosResident.Set(int64(len(c.m)))
	return e, true
}

// shrinkLocked drops least-recently-used built entries whose key is not
// in spare until at most n remain or none is left to drop; entries
// still building are kept. c.mu must be held.
func (c *scenarioCache) shrinkLocked(n int, spare map[string]bool) {
	for len(c.m) > n {
		var victimKey string
		var victim *scenarioEntry
		for k, e := range c.m {
			if spare[k] {
				continue
			}
			select {
			case <-e.ready:
			default:
				continue // still building
			}
			if victim == nil || e.last < victim.last {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		delete(c.m, victimKey)
	}
}
