package pardon

// This file is the public facade of the library: external modules cannot
// import internal/ packages, so the types and constructors a downstream
// user needs are re-exported here under stable names. pardon_api_test.go
// runs a federated round through this surface alone. The programs inside
// this module (examples/, cmd/ and the experiments in internal/eval)
// import the internal packages directly; the facade names the same types
// and functions.

import (
	"math/rand"

	"github.com/pardon-feddg/pardon/internal/attack"
	"github.com/pardon-feddg/pardon/internal/baselines"
	"github.com/pardon-feddg/pardon/internal/core"
	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/partition"
	"github.com/pardon-feddg/pardon/internal/rng"
	"github.com/pardon-feddg/pardon/internal/style"
	"github.com/pardon-feddg/pardon/internal/synth"
)

// --- federated engine ---

// Env is the shared execution environment of a federated run: frozen
// encoder, model architecture, hyper-parameters, deterministic randomness.
type Env = fl.Env

// Client is one federated participant with cached encoder features.
type Client = fl.Client

// EvalSet is a pre-encoded evaluation corpus (e.g. an unseen domain).
type EvalSet = fl.EvalSet

// Algorithm is a federated training method; PARDON and all baselines
// implement it.
type Algorithm = fl.Algorithm

// RunConfig controls rounds, per-round client sampling, and evaluation
// cadence.
type RunConfig = fl.RunConfig

// History is the trace of a federated run (per-round accuracy, timing).
type History = fl.History

// Hyper bundles local-training hyper-parameters.
type Hyper = fl.Hyper

// DefaultHyper mirrors the paper's local-training settings.
func DefaultHyper() Hyper { return fl.DefaultHyper() }

// NewClients encodes partitioned datasets into federated clients.
func NewClients(env *Env, parts []*Dataset) ([]*Client, error) { return fl.NewClients(env, parts) }

// NewEvalSet encodes an evaluation dataset once.
func NewEvalSet(env *Env, data *Dataset) (*EvalSet, error) { return fl.NewEvalSet(env, data) }

// Run executes a federated training run.
func Run(env *Env, alg Algorithm, clients []*Client, val, test *EvalSet, cfg RunConfig) (*Model, *History, error) {
	return fl.Run(env, alg, clients, val, test, cfg)
}

// --- the PARDON method and its baselines ---

// Options configures PARDON (and its Table V ablation variants).
type Options = core.Options

// DefaultOptions returns the full PARDON configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewPARDON constructs the PARDON algorithm.
func NewPARDON(opts Options) *core.PARDON { return core.New(opts) }

// Baseline constructors, matching the paper's comparison set.
var (
	NewFedAvg  = func() Algorithm { return &baselines.FedAvg{} }
	NewFedSR   = func() Algorithm { return baselines.NewFedSR() }
	NewFedGMA  = func() Algorithm { return baselines.NewFedGMA() }
	NewFPL     = func() Algorithm { return baselines.NewFPL() }
	NewFedDGGA = func() Algorithm { return baselines.NewFedDGGA() }
	NewCCST    = func() Algorithm { return baselines.NewCCST() }
)

// --- data ---

// Dataset is an ordered, domain-tagged sample collection.
type Dataset = dataset.Dataset

// Sample is one labeled, domain-tagged example.
type Sample = dataset.Sample

// Split names the train/val/test domains of an evaluation scheme.
type Split = dataset.Split

// LODOSplits and LTDOSplits enumerate the paper's evaluation schemes.
func LODOSplits(numDomains int, names []string) ([]Split, error) {
	return dataset.LODOSplits(numDomains, names)
}

// LTDOSplits enumerates leave-two-domains-out schemes.
func LTDOSplits(numDomains int, names []string) ([]Split, error) {
	return dataset.LTDOSplits(numDomains, names)
}

// PartitionOptions configures domain-based client heterogeneity.
type PartitionOptions = partition.Options

// PartitionByDomain splits per-domain datasets across clients with
// heterogeneity level λ.
func PartitionByDomain(domainData []*Dataset, opts PartitionOptions, r *rand.Rand) ([]*Dataset, error) {
	return partition.PartitionByDomain(domainData, opts, r)
}

// --- synthetic corpora ---

// Generator renders samples of a synthetic multi-domain corpus.
type Generator = synth.Generator

// GeneratorConfig describes a synthetic corpus.
type GeneratorConfig = synth.Config

// NewGenerator constructs a corpus generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) { return synth.New(cfg) }

// Preset corpus configurations mirroring the paper's datasets.
var (
	PACSConfig       = synth.PACSConfig
	OfficeHomeConfig = synth.OfficeHomeConfig
	IWildCamConfig   = synth.IWildCamConfig
)

// --- encoder, model, styles ---

// Encoder is the frozen pre-trained feature encoder Φ.
type Encoder = encoder.Encoder

// EncoderConfig describes the encoder architecture.
type EncoderConfig = encoder.Config

// NewEncoder builds the frozen encoder.
func NewEncoder(cfg EncoderConfig) (*Encoder, error) { return encoder.New(cfg) }

// DefaultEncoderConfig is the encoder used throughout the experiments.
func DefaultEncoderConfig() EncoderConfig { return encoder.DefaultConfig() }

// Model is the trainable feature extractor + classifier.
type Model = nn.Model

// ModelConfig describes the model architecture.
type ModelConfig = nn.Config

// Style is the channel-wise (μ, σ) statistics of a feature map.
type Style = style.Style

// AdaIN re-normalizes a feature map to a target style (Eq. 6).
var AdaIN = style.AdaIN

// --- randomness ---

// RNG is the deterministic splittable randomness source; every Env needs
// one.
type RNG = rng.Source

// NewRNG returns a source rooted at the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// --- privacy audit ---

// PrivacyConfig sizes the style-inversion attack experiment.
type PrivacyConfig = attack.PrivacyConfig

// RunPrivacyAudit executes the Table IV attacks.
func RunPrivacyAudit(cfg PrivacyConfig) (*attack.PrivacyResult, error) {
	return attack.RunPrivacy(cfg)
}
