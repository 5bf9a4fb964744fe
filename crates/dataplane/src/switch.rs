//! The full per-packet switch path (§VI).
//!
//! Ingress parses the packet (deep parsing with recirculation) and
//! evaluates the compiled pipeline once per batched message, producing
//! a port mask per message. The crossbar then replicates the packet —
//! one copy per output port — and egress prunes from each copy the
//! messages that port's subscribers did not ask for (§VI-A; on
//! hardware the mask rides in an unused header field, here it is
//! explicit). Non-forward actions (`answerDNS`, custom) are surfaced
//! to the embedding application.
//!
//! Latency is modelled as a base pipeline traversal plus a penalty per
//! recirculation pass, defaulting to the paper's sub-microsecond
//! pipeline (§VIII-F).

use crate::fastpath::{EvalPlan, EvalScratch, KeepLists};
use crate::packet::Packet;
use crate::parser::{DeepParser, ParseOutcome};
use crate::state::StateStore;
use crate::telemetry::SwitchTelemetry;
use camus_core::compiled::{CompiledPipeline, EvalCounters};
use camus_core::pipeline::Pipeline;
use camus_core::resources::{self, AdmissionError, ResourceBudget, ResourceReport};
use camus_core::statics::StaticPipeline;
use camus_lang::ast::{Action, AggFunc, Operand, Port};
use camus_lang::spec::Spec;
use camus_lang::value::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Hardware-model parameters.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Messages extracted per parser pass (PHV budget).
    pub max_msgs_per_pass: usize,
    /// Dedicated recirculation ports.
    pub recirc_ports: usize,
    /// One pipeline traversal, in nanoseconds (§VIII-F: < 1 μs).
    pub base_latency_ns: u64,
    /// Extra latency per recirculation pass.
    pub recirc_latency_ns: u64,
    /// Window for aggregates without an explicit `@counter`.
    pub default_window_us: u64,
    /// Resource budget every installed pipeline must fit (Table I).
    /// Defaults to unlimited so unbudgeted simulations never reject;
    /// the controller overrides it per switch for admission control.
    pub budget: ResourceBudget,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            max_msgs_per_pass: 4,
            recirc_ports: 3,
            base_latency_ns: 600,
            recirc_latency_ns: 400,
            default_window_us: 100,
            budget: ResourceBudget::unlimited(),
        }
    }
}

/// Why an install was refused. The previous program keeps forwarding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// The compiled pipeline exceeds this switch's resource budget.
    OverBudget(AdmissionError),
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::OverBudget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for InstallError {}

/// What a program is lowered against: the spec its slot plan resolves
/// fields in and the field widths its resource report counts. Switches
/// built from equal specs have equal targets, so one switch's program
/// can be staged on another as-is.
#[derive(Debug, PartialEq, Eq)]
struct LoweringTarget {
    spec: Spec,
    /// Field widths for resource accounting: dotted path plus bare name
    /// (the compiler keys stages by the bare name when unambiguous).
    widths: HashMap<String, u32>,
}

impl LoweringTarget {
    fn new(spec: Spec) -> Self {
        let mut widths = HashMap::new();
        for (path, f) in spec.subscribable_fields() {
            let bare = path.rsplit('.').next().unwrap_or(&path).to_string();
            widths.insert(path, f.width_bits);
            widths.insert(bare, f.width_bits);
        }
        LoweringTarget { spec, widths }
    }
}

/// A complete forwarding program: the control-plane pipeline plus
/// everything lowered from it, and its resource report. Immutable once
/// built and shared by `Arc`: a controller prepares one per distinct
/// pipeline and stages it on every switch that runs that pipeline,
/// each admitting the report against its own budget. Built
/// shadow-side and swapped in atomically, so a failed build never
/// disturbs forwarding.
#[derive(Debug)]
pub struct Program {
    pipeline: Pipeline,
    /// Fast-path lowering of `pipeline`.
    compiled: CompiledPipeline,
    /// Slot resolution of `compiled` against the target's spec.
    plan: EvalPlan,
    /// Aggregate operands appearing in the pipeline, cached.
    aggregates: Vec<(String, AggFunc, String)>, // (key, func, field)
    /// `pipeline` accounted against the target's widths.
    report: ResourceReport,
    target: Arc<LoweringTarget>,
}

impl Program {
    fn build(target: &Arc<LoweringTarget>, pipeline: Pipeline) -> Program {
        let aggregates = pipeline
            .stages
            .iter()
            .filter_map(|s| match &s.operand {
                Operand::Aggregate { func, field } => Some((s.operand.key(), *func, field.clone())),
                Operand::Field(_) => None,
            })
            .collect();
        let compiled = CompiledPipeline::lower(&pipeline);
        let plan = EvalPlan::build(&target.spec, &compiled, &pipeline);
        let report = resources::report(&pipeline, pipeline.multicast_group_count(), &target.widths);
        Program { pipeline, compiled, plan, aggregates, report, target: Arc::clone(target) }
    }

    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The fast-path lowering of the pipeline.
    pub fn compiled(&self) -> &CompiledPipeline {
        &self.compiled
    }
}

/// Running counters exposed for the evaluation.
///
/// Cache-line aligned so per-shard switches laid out contiguously (the
/// sharded throughput driver owns one `Switch` per shard) never share a
/// line of hot counters between cores — false sharing on these would
/// serialise the very scaling the shards exist to measure.
#[repr(align(64))]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    pub packets: u64,
    pub messages: u64,
    /// Packets whose geometry does not fit the spec (truncated stack
    /// or a partial trailing message). The decodable prefix is still
    /// processed; the malformed tail is a graceful parse miss.
    pub malformed: u64,
    pub truncated_messages: u64,
    pub recirculation_passes: u64,
    /// Messages forwarded nowhere (every target port pruned), whatever
    /// the cause — the total the per-cause counters below attribute.
    pub dropped_messages: u64,
    /// Output packet copies emitted.
    pub copies: u64,
    /// Messages dropped because no rule routed them anywhere usable:
    /// explicit `drop` actions and ingress-only matches.
    pub dropped_no_route: u64,
    /// Per-port forwarding decisions suppressed because the egress
    /// port was down. Counted per (message, port) pair, so it can
    /// exceed `dropped_messages` when a multicast message loses some
    /// ports but still leaves through others.
    pub dropped_port_down: u64,
    /// Messages lost to resource exhaustion (parser PHV/recirculation
    /// budget) — mirrors `truncated_messages`, kept separate so the
    /// drop-cause counters add up on their own.
    pub dropped_resource: u64,
    /// Compiled-path stage lookups that found a transition.
    pub stage_hits: u64,
    /// Compiled-path stage lookups that missed (§V-D pass-through).
    pub stage_misses: u64,
    /// Compiled-path match probes performed (binary-search steps plus
    /// linear entries touched) — attributes where evaluation time goes.
    pub entries_scanned: u64,
    /// `process_batch_indexed` invocations.
    pub batches: u64,
    /// Packets processed through `process_batch_indexed` (with `batches`, the
    /// mean batch size).
    pub batched_packets: u64,
    /// Output copies that shared the input buffer (no pruning needed:
    /// an `Arc` bump, not a byte copy).
    pub shared_copies: u64,
    /// Output copies that materialised a pruned buffer.
    pub deep_copies: u64,
}

impl SwitchStats {
    /// Fold another switch's counters into this one — the reduction the
    /// sharded throughput driver applies across per-shard switches.
    pub fn merge(&mut self, other: &SwitchStats) {
        self.packets += other.packets;
        self.messages += other.messages;
        self.malformed += other.malformed;
        self.truncated_messages += other.truncated_messages;
        self.recirculation_passes += other.recirculation_passes;
        self.dropped_messages += other.dropped_messages;
        self.copies += other.copies;
        self.dropped_no_route += other.dropped_no_route;
        self.dropped_port_down += other.dropped_port_down;
        self.dropped_resource += other.dropped_resource;
        self.stage_hits += other.stage_hits;
        self.stage_misses += other.stage_misses;
        self.entries_scanned += other.entries_scanned;
        self.batches += other.batches;
        self.batched_packets += other.batched_packets;
        self.shared_copies += other.shared_copies;
        self.deep_copies += other.deep_copies;
    }

    /// The counters that describe *what was forwarded*, with the
    /// batching-shape counters (`batches`, `batched_packets`) zeroed.
    /// Drivers with different chunk sizes legitimately disagree on
    /// those two while forwarding identically; this is the projection
    /// the shard-sum differential tests compare.
    pub fn forwarding_stats(&self) -> SwitchStats {
        SwitchStats { batches: 0, batched_packets: 0, ..*self }
    }
}

/// The result of processing one packet.
#[derive(Debug, Clone, Default)]
pub struct SwitchOutput {
    /// One (port, pruned copy) per output port.
    pub ports: Vec<(Port, Packet)>,
    /// Non-forward actions raised by messages: `(message index, action)`.
    pub actions: Vec<(usize, Action)>,
    /// Modelled processing latency.
    pub latency_ns: u64,
    /// Parser passes used.
    pub passes: usize,
}

/// A switch loaded with an application and a compiled pipeline.
#[derive(Debug, Clone)]
pub struct Switch {
    parser: DeepParser,
    /// The live forwarding program.
    program: Arc<Program>,
    /// Shadow-side program staged by [`stage_prepared`](Self::stage_prepared),
    /// awaiting commit, tagged with the install transaction's epoch so
    /// a recovering controller can tell *which* transaction left it
    /// behind. Never touches the data path.
    staged: Option<(u64, Arc<Program>)>,
    /// Epoch of the last commit that has not been finalised or
    /// reverted — the other half of the reconciliation handshake.
    committed_epoch: Option<u64>,
    /// The program displaced by the last commit, retained until
    /// [`finalize_install`](Self::finalize_install) so a network-wide
    /// transaction can still revert this switch.
    retired: Option<Arc<Program>>,
    /// What this switch lowers programs against.
    target: Arc<LoweringTarget>,
    /// Reusable per-packet scratch (slot values + keep lists).
    scratch: EvalScratch,
    state: StateStore,
    config: SwitchConfig,
    stats: SwitchStats,
    /// Egress ports currently marked down (fault model): forwarding
    /// decisions towards them are suppressed and counted.
    port_down: HashSet<Port>,
    /// Optional sampled instruments; `None` keeps the fast path free
    /// of even the sampler tick. Boxed so the common case stays one
    /// pointer in the hot struct.
    telemetry: Option<Box<SwitchTelemetry>>,
    /// Evaluation counters of the most recent [`process`](Self::process)
    /// call, for the simulator to copy into packet postcards.
    last_eval: EvalCounters,
}

impl Switch {
    /// Build from the static pipeline (application) and a dynamically
    /// compiled rule pipeline.
    pub fn new(statics: &StaticPipeline, pipeline: Pipeline, config: SwitchConfig) -> Self {
        let mut state = StateStore::new(config.default_window_us);
        for reg in &statics.registers {
            state.allocate(&reg.name, reg.window_us);
        }
        Switch::with_spec(statics.spec.clone(), pipeline, state, config)
    }

    /// Build from a bare spec (tests and simple applications).
    pub fn from_spec(spec: Spec, pipeline: Pipeline, config: SwitchConfig) -> Self {
        let state = StateStore::new(config.default_window_us);
        Switch::with_spec(spec, pipeline, state, config)
    }

    fn with_spec(spec: Spec, pipeline: Pipeline, state: StateStore, config: SwitchConfig) -> Self {
        let target = Arc::new(LoweringTarget::new(spec.clone()));
        let parser = DeepParser::new(spec, config.max_msgs_per_pass, config.recirc_ports);
        let program = Arc::new(Program::build(&target, Pipeline::empty()));
        let mut sw = Switch {
            parser,
            program,
            staged: None,
            committed_epoch: None,
            retired: None,
            target,
            scratch: EvalScratch::default(),
            state,
            config,
            stats: SwitchStats::default(),
            port_down: HashSet::new(),
            telemetry: None,
            last_eval: EvalCounters::default(),
        };
        sw.install(pipeline);
        sw
    }

    /// Account `pipeline` against this switch's budget without
    /// touching any install state.
    pub fn admit(&self, pipeline: &Pipeline) -> Result<ResourceReport, InstallError> {
        let report =
            resources::report(pipeline, pipeline.multicast_group_count(), &self.target.widths);
        self.config.budget.admit(&report).map_err(InstallError::OverBudget)?;
        Ok(report)
    }

    /// Lower `pipeline` against this switch's spec into a program that
    /// any switch with the same spec can stage without lowering it
    /// again. Touches no install state and applies no budget.
    pub fn prepare(&self, pipeline: Pipeline) -> Arc<Program> {
        Arc::new(Program::build(&self.target, pipeline))
    }

    /// Phase one of an install: validate `pipeline` against the
    /// resource budget and build it shadow-side under transaction
    /// epoch 0 (library callers that never recover). Forwarding is
    /// untouched; on rejection nothing is staged and the previous
    /// staged program (if any) is kept.
    pub fn stage(&mut self, pipeline: Pipeline) -> Result<ResourceReport, InstallError> {
        self.stage_epoch(pipeline, 0)
    }

    /// Phase one with an explicit transaction epoch. The epoch rides
    /// with the shadow program so [`staged_epoch`](Self::staged_epoch)
    /// can answer a recovering controller's "what did I leave here?".
    pub fn stage_epoch(
        &mut self,
        pipeline: Pipeline,
        epoch: u64,
    ) -> Result<ResourceReport, InstallError> {
        let program = self.prepare(pipeline);
        self.stage_prepared(&program, epoch)
    }

    /// Phase one from a [`prepare`](Self::prepare)d program, possibly
    /// shared with other switches. A program lowered for a different
    /// spec is lowered again here; either way its report is admitted
    /// against *this* switch's budget, so a shared program can be
    /// admitted on one switch and rejected on another.
    pub fn stage_prepared(
        &mut self,
        program: &Arc<Program>,
        epoch: u64,
    ) -> Result<ResourceReport, InstallError> {
        // `Arc` equality checks identity before contents; comparing a
        // spec and its widths is small next to lowering a pipeline.
        let program = if program.target == self.target {
            Arc::clone(program)
        } else {
            self.prepare(program.pipeline.clone())
        };
        self.config.budget.admit(&program.report).map_err(InstallError::OverBudget)?;
        let report = program.report.clone();
        self.staged = Some((epoch, program));
        Ok(report)
    }

    /// Phase two: atomically swap the staged program into the data
    /// path. The displaced program is retained so the commit can still
    /// be reverted until [`finalize_install`](Self::finalize_install).
    /// Returns `false` (a no-op) when nothing is staged.
    pub fn commit_staged(&mut self) -> bool {
        match self.staged.take() {
            Some((epoch, p)) => {
                self.scratch.reset(p.compiled.slots().len());
                self.retired = Some(std::mem::replace(&mut self.program, p));
                self.committed_epoch = Some(epoch);
                true
            }
            None => false,
        }
    }

    /// Undo a not-yet-finalised commit: the retired program resumes
    /// forwarding. Returns `false` when there is nothing to revert.
    pub fn revert_committed(&mut self) -> bool {
        match self.retired.take() {
            Some(p) => {
                self.scratch.reset(p.compiled.slots().len());
                self.program = p;
                self.committed_epoch = None;
                true
            }
            None => false,
        }
    }

    /// Discard a staged-but-uncommitted program. Returns `false` when
    /// nothing was staged.
    pub fn abort_staged(&mut self) -> bool {
        self.staged.take().is_some()
    }

    /// Make the last commit permanent by dropping the retired program.
    pub fn finalize_install(&mut self) {
        self.retired = None;
        self.committed_epoch = None;
    }

    /// Whether a shadow program is currently staged.
    pub fn has_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// Epoch of the staged-but-uncommitted program, if any — what a
    /// recovering controller interrogates to decide commit vs. abort.
    pub fn staged_epoch(&self) -> Option<u64> {
        self.staged.as_ref().map(|(e, _)| *e)
    }

    /// Epoch of a committed-but-unfinalised install, if any. A
    /// recovering controller finalises these when the commit decision
    /// was logged, and reverts them otherwise.
    pub fn unfinalized_epoch(&self) -> Option<u64> {
        self.committed_epoch
    }

    /// Admission-checked atomic install (dynamic reconfiguration,
    /// §VIII-G.3): stage, commit, finalize. On error the previous
    /// program keeps forwarding, byte for byte. State registers
    /// persist across reconfigurations.
    pub fn try_install(&mut self, pipeline: Pipeline) -> Result<ResourceReport, InstallError> {
        let report = self.stage(pipeline)?;
        self.commit_staged();
        self.finalize_install();
        Ok(report)
    }

    /// Infallible install wrapper (tests and unbudgeted simulations).
    /// Panics if the pipeline is rejected — only possible once a
    /// finite budget is configured.
    pub fn install(&mut self, pipeline: Pipeline) {
        self.try_install(pipeline).expect("install rejected by resource budget");
    }

    pub fn spec(&self) -> &Spec {
        self.parser.spec()
    }

    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    pub fn pipeline(&self) -> &Pipeline {
        &self.program.pipeline
    }

    /// The fast-path lowering of the installed pipeline.
    pub fn compiled(&self) -> &CompiledPipeline {
        &self.program.compiled
    }

    /// Mark an egress port up or down (link/peer failure). While a
    /// port is down, forwarding decisions towards it are suppressed
    /// and counted in [`SwitchStats::dropped_port_down`]; pipelines
    /// and state are untouched, so restoring the port resumes
    /// forwarding without a reinstall.
    pub fn set_port_down(&mut self, port: Port, down: bool) {
        if down {
            self.port_down.insert(port);
        } else {
            self.port_down.remove(&port);
        }
    }

    pub fn port_is_down(&self, port: Port) -> bool {
        self.port_down.contains(&port)
    }

    /// Attach sampled instruments to this switch. Until detached,
    /// every processed packet pays one sampler tick; sampled packets
    /// record into the instruments' shared registry.
    pub fn attach_telemetry(&mut self, telemetry: SwitchTelemetry) {
        self.telemetry = Some(Box::new(telemetry));
    }

    /// Remove the instruments, restoring the telemetry-free path.
    pub fn detach_telemetry(&mut self) -> Option<SwitchTelemetry> {
        self.telemetry.take().map(|t| *t)
    }

    pub fn telemetry(&self) -> Option<&SwitchTelemetry> {
        self.telemetry.as_deref()
    }

    /// Evaluation counters of the most recent fast-path
    /// [`process`](Self::process) call (postcard source material).
    pub fn last_eval(&self) -> EvalCounters {
        self.last_eval
    }

    /// Process a packet arriving on `ingress` at absolute time
    /// `now_us`, through the compiled fast path: slot-indexed decode
    /// straight from the packet bytes, reusable keep lists, and
    /// copy-on-prune replication. Allocation-free once warm.
    pub fn process(&mut self, pkt: &Packet, ingress: Port, now_us: u64) -> SwitchOutput {
        self.stats.packets += 1;
        if self.program.plan.is_malformed(pkt) {
            self.stats.malformed += 1;
        }
        // Parser budget model (≡ DeepParser::parse without the maps).
        let total = self.program.plan.message_count(pkt);
        let budget = (self.config.recirc_ports + 1) * self.config.max_msgs_per_pass;
        let extract = total.min(budget);
        let truncated = total - extract;
        let passes =
            if total == 0 { 1 } else { extract.div_ceil(self.config.max_msgs_per_pass).max(1) };
        self.stats.truncated_messages += truncated as u64;
        self.stats.dropped_resource += truncated as u64;
        self.stats.recirculation_passes += (passes - 1) as u64;

        let mut out = SwitchOutput {
            passes,
            latency_ns: self.config.base_latency_ns
                + self.config.recirc_latency_ns * (passes as u64 - 1),
            ..Default::default()
        };

        let mut counters = EvalCounters::default();
        let Switch { program, state, scratch, stats, port_down, telemetry, last_eval, .. } = self;
        let (plan, compiled) = (&program.plan, &program.compiled);
        scratch.keep.clear();

        if total == 0 {
            // Stack-only application (e.g. INT): the packet itself is
            // the message.
            if plan.stack_has_fields(pkt) {
                stats.messages += 1;
                let id = plan.eval(
                    compiled,
                    state,
                    &mut scratch.values,
                    pkt,
                    None,
                    now_us,
                    &mut counters,
                );
                apply_action(
                    compiled.action(id),
                    0,
                    ingress,
                    port_down,
                    &mut scratch.keep,
                    stats,
                    &mut out,
                );
            }
        } else {
            for index in 0..extract {
                stats.messages += 1;
                let off = plan.msg_offset(index);
                let id = plan.eval(
                    compiled,
                    state,
                    &mut scratch.values,
                    pkt,
                    Some(off),
                    now_us,
                    &mut counters,
                );
                apply_action(
                    compiled.action(id),
                    index,
                    ingress,
                    port_down,
                    &mut scratch.keep,
                    stats,
                    &mut out,
                );
            }
        }
        stats.stage_hits += counters.stage_hits;
        stats.stage_misses += counters.stage_misses;
        stats.entries_scanned += counters.entries_scanned;
        *last_eval = counters;
        if let Some(t) = telemetry.as_deref_mut() {
            t.observe(&counters, out.latency_ns, passes);
        }

        // Crossbar replication + egress pruning: one copy per port. A
        // copy that keeps every byte shares the input buffer (`Bytes`
        // is refcounted) instead of deep-cloning.
        scratch.keep.sort_ports();
        let share_whole = plan.msg_width == 0;
        let exact_len = plan.msg_base + total * plan.msg_width;
        for ti in 0..scratch.keep.touched.len() {
            let port = scratch.keep.touched[ti];
            let indices = &scratch.keep.lists[port as usize];
            let copy = if share_whole || (indices.len() == total && pkt.len() == exact_len) {
                stats.shared_copies += 1;
                pkt.clone()
            } else {
                stats.deep_copies += 1;
                pkt.prune_messages(self.parser.spec(), indices)
            };
            stats.copies += 1;
            out.ports.push((port, copy));
        }
        out
    }

    /// Process a batch of `(packet, ingress)` pairs arriving together.
    /// Amortises per-call overhead and feeds the batch-size counters.
    ///
    /// Packet `j` of the batch is processed at time `first_index + j`,
    /// so a driver that splits one packet stream across shards can
    /// hand each shard its *global* packet indices and every shard
    /// agrees with the sequential lanes on timestamp-keyed
    /// aggregate/window semantics. The next packet's header bytes are
    /// prefetched while the current one evaluates. `out` is cleared
    /// and refilled, letting a hot loop reuse one allocation across
    /// batches.
    pub fn process_batch_indexed(
        &mut self,
        pkts: &[(Packet, Port)],
        first_index: u64,
        out: &mut Vec<SwitchOutput>,
    ) {
        out.clear();
        self.stats.batches += 1;
        self.stats.batched_packets += pkts.len() as u64;
        out.reserve(pkts.len());
        for (j, (pkt, ingress)) in pkts.iter().enumerate() {
            if let Some((next, _)) = pkts.get(j + 1) {
                crate::fastpath::prefetch_read(next.bytes.as_slice());
            }
            out.push(self.process(pkt, *ingress, first_index + j as u64));
        }
    }

    /// The interpreted reference path: `DeepParser::parse` into string-
    /// keyed maps, `Pipeline::evaluate` per message. Semantically
    /// identical to [`process`](Self::process) (the differential tests
    /// pin this); kept for equivalence testing and as the measured
    /// baseline in the `throughput` experiment.
    pub fn process_reference(&mut self, pkt: &Packet, ingress: Port, now_us: u64) -> SwitchOutput {
        let outcome = self.parser.parse(pkt);
        self.stats.packets += 1;
        if self.program.plan.is_malformed(pkt) {
            self.stats.malformed += 1;
        }
        self.stats.truncated_messages += outcome.truncated as u64;
        self.stats.dropped_resource += outcome.truncated as u64;
        self.stats.recirculation_passes += (outcome.passes - 1) as u64;

        let mut out = SwitchOutput {
            passes: outcome.passes,
            latency_ns: self.config.base_latency_ns
                + self.config.recirc_latency_ns * (outcome.passes as u64 - 1),
            ..Default::default()
        };

        // Per-port keep lists (the port mask of §VI-A).
        let mut keep = KeepLists::default();

        if outcome.messages.is_empty() {
            // Stack-only application (e.g. INT): the packet itself is
            // the message.
            if pkt.message_count(self.parser.spec()) == 0 && !outcome.stack.is_empty() {
                self.stats.messages += 1;
                let action = self.eval_message(&outcome, None, now_us);
                apply_action(
                    &action,
                    0,
                    ingress,
                    &self.port_down,
                    &mut keep,
                    &mut self.stats,
                    &mut out,
                );
            }
        } else {
            for mi in 0..outcome.messages.len() {
                self.stats.messages += 1;
                let action = self.eval_message(&outcome, Some(mi), now_us);
                let index = outcome.messages[mi].index;
                apply_action(
                    &action,
                    index,
                    ingress,
                    &self.port_down,
                    &mut keep,
                    &mut self.stats,
                    &mut out,
                );
            }
        }

        // Crossbar replication + egress pruning: one copy per port.
        keep.sort_ports();
        for ti in 0..keep.touched.len() {
            let port = keep.touched[ti];
            let indices = &keep.lists[port as usize];
            let copy = if self.parser.spec().messages.is_some() {
                pkt.prune_messages(self.parser.spec(), indices)
            } else {
                pkt.clone()
            };
            self.stats.copies += 1;
            out.ports.push((port, copy));
        }
        out
    }

    /// Evaluate the interpreted pipeline for one message (or the bare
    /// stack), updating aggregate registers first so the aggregate
    /// includes the current observation.
    fn eval_message(&mut self, outcome: &ParseOutcome, msg: Option<usize>, now_us: u64) -> Action {
        // 1. Update every aggregate register with its field value.
        let field_value = |key: &str| -> Option<Value> {
            match msg {
                Some(mi) => outcome.lookup(&outcome.messages[mi], key).cloned(),
                None => outcome.stack.get(key).cloned(),
            }
        };
        let mut agg_values: HashMap<String, Value> = HashMap::new();
        for (key, func, field) in &self.program.aggregates {
            if let Some(Value::Int(v)) = field_value(field) {
                self.state.update(key, now_us, v);
            }
            agg_values.insert(key.clone(), Value::Int(self.state.read(key, now_us, *func)));
        }
        // 2. Evaluate the pipeline with message + stack + aggregates.
        self.program.pipeline.evaluate(|op: &Operand| match op {
            Operand::Field(_) => field_value(&op.key()),
            Operand::Aggregate { .. } => agg_values.get(&op.key()).cloned(),
        })
    }
}

/// Route one message's action into the keep lists and stats.
fn apply_action(
    action: &Action,
    msg_index: usize,
    ingress: Port,
    port_down: &HashSet<Port>,
    keep: &mut KeepLists,
    stats: &mut SwitchStats,
    out: &mut SwitchOutput,
) {
    match action {
        Action::Forward(ports) => {
            let mut any = false;
            let mut suppressed_down = false;
            for &p in ports {
                if p == ingress {
                    continue;
                }
                if port_down.contains(&p) {
                    stats.dropped_port_down += 1;
                    suppressed_down = true;
                    continue;
                }
                keep.push(p, msg_index);
                any = true;
            }
            if !any {
                stats.dropped_messages += 1;
                // Attribute the loss once: a message that lost a down
                // port is a port-down drop (already counted above);
                // otherwise nothing routed it.
                if !suppressed_down {
                    stats.dropped_no_route += 1;
                }
            }
        }
        Action::Drop => {
            stats.dropped_messages += 1;
            stats.dropped_no_route += 1;
        }
        other => out.actions.push((msg_index, other.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;
    use camus_core::compiler::Compiler;
    use camus_core::statics::compile_static;
    use camus_lang::parser::parse_rules;
    use camus_lang::spec::itch_spec;

    fn itch_switch(rules_src: &str) -> Switch {
        let statics = compile_static(&itch_spec()).unwrap();
        let rules = parse_rules(rules_src).unwrap();
        let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
        Switch::new(&statics, compiled.pipeline, SwitchConfig::default())
    }

    fn order(stock: &str, price: i64) -> Vec<(&'static str, Value)> {
        vec![("stock", Value::from(stock)), ("price", Value::Int(price))]
    }

    #[test]
    fn forwards_matching_messages_to_ports() {
        let mut sw = itch_switch(
            "stock == GOOGL: fwd(1)\n\
             stock == MSFT: fwd(2)\n",
        );
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec)
            .message(order("GOOGL", 10))
            .message(order("MSFT", 20))
            .message(order("FB", 30))
            .build();
        let out = sw.process(&pkt, 0, 0);
        assert_eq!(out.ports.len(), 2);
        let (p1, c1) = &out.ports[0];
        assert_eq!(*p1, 1);
        assert_eq!(c1.message_count(&spec), 1);
        assert_eq!(c1.message(&spec, 0).unwrap()["stock"], Value::from("GOOGL"));
        let (p2, c2) = &out.ports[1];
        assert_eq!(*p2, 2);
        assert_eq!(c2.message(&spec, 0).unwrap()["stock"], Value::from("MSFT"));
        assert_eq!(sw.stats().dropped_messages, 1); // FB
        assert_eq!(sw.stats().messages, 3);
    }

    #[test]
    fn multicast_message_reaches_both_subscribers() {
        let mut sw = itch_switch(
            "stock == GOOGL: fwd(1)\n\
             price > 5: fwd(2)\n",
        );
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 10)).build();
        let out = sw.process(&pkt, 0, 0);
        let ports: Vec<Port> = out.ports.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![1, 2]);
        // Both copies carry the single message.
        for (_, c) in &out.ports {
            assert_eq!(c.message_count(&spec), 1);
        }
    }

    #[test]
    fn never_forwards_to_ingress_port() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 10)).build();
        let out = sw.process(&pkt, 1, 0);
        assert!(out.ports.is_empty());
        assert_eq!(sw.stats().dropped_messages, 1);
    }

    #[test]
    fn recirculation_latency_model() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let mut b = PacketBuilder::new(&spec);
        for _ in 0..10 {
            b = b.message(order("GOOGL", 1));
        }
        let out = sw.process(&b.build(), 0, 0);
        // 10 messages, 4 per pass -> 3 passes -> base + 2*recirc.
        assert_eq!(out.passes, 3);
        assert_eq!(out.latency_ns, 600 + 2 * 400);
        assert_eq!(sw.stats().recirculation_passes, 2);
        // All 10 messages forwarded in one copy.
        assert_eq!(out.ports[0].1.message_count(&spec), 10);
    }

    #[test]
    fn truncation_counts() {
        let statics = compile_static(&itch_spec()).unwrap();
        let rules = parse_rules("stock == GOOGL: fwd(1)\n").unwrap();
        let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
        let cfg = SwitchConfig { max_msgs_per_pass: 2, recirc_ports: 1, ..Default::default() };
        let mut sw = Switch::new(&statics, compiled.pipeline, cfg);
        let spec = itch_spec();
        let mut b = PacketBuilder::new(&spec);
        for _ in 0..7 {
            b = b.message(order("GOOGL", 1));
        }
        let out = sw.process(&b.build(), 0, 0);
        assert_eq!(sw.stats().truncated_messages, 3);
        assert_eq!(out.ports[0].1.message_count(&spec), 4);
    }

    #[test]
    fn stateful_average_gates_forwarding() {
        // §II example: forward GOOGL only when avg(price) > 60.
        let mut sw = itch_switch("stock == GOOGL and avg(price) > 60: fwd(1)\n");
        let spec = itch_spec();
        let pkt = |price: i64| PacketBuilder::new(&spec).message(order("GOOGL", price)).build();
        // First message: avg = 50 -> no match.
        let out = sw.process(&pkt(50), 0, 0);
        assert!(out.ports.is_empty());
        // Second message at price 90 -> avg = 70 -> match.
        let out = sw.process(&pkt(90), 0, 10);
        assert_eq!(out.ports.len(), 1);
        // After the 100 μs default window tumbles, a 50 alone fails again.
        let out = sw.process(&pkt(50), 0, 200);
        assert!(out.ports.is_empty());
    }

    #[test]
    fn stack_only_application_forwards_whole_packet() {
        // INT-style spec without batched messages.
        let spec = camus_lang::spec::int_spec();
        let statics = compile_static(&spec).unwrap();
        let rules = parse_rules("switch_id == 2 and hop_latency > 100: fwd(3)\n").unwrap();
        let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
        let mut sw = Switch::new(&statics, compiled.pipeline, SwitchConfig::default());
        let pkt = PacketBuilder::new(&spec)
            .stack_field("int_report", "switch_id", 2i64)
            .stack_field("int_report", "hop_latency", 500i64)
            .build();
        let out = sw.process(&pkt, 0, 0);
        assert_eq!(out.ports.len(), 1);
        assert_eq!(out.ports[0].0, 3);
        assert_eq!(out.ports[0].1, pkt); // forwarded intact
                                         // Non-matching report is dropped.
        let quiet = PacketBuilder::new(&spec)
            .stack_field("int_report", "switch_id", 2i64)
            .stack_field("int_report", "hop_latency", 50i64)
            .build();
        let out = sw.process(&quiet, 0, 1);
        assert!(out.ports.is_empty());
    }

    #[test]
    fn custom_actions_are_surfaced() {
        let mut sw = itch_switch("stock == GOOGL: mirror(9)\n");
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 1)).build();
        let out = sw.process(&pkt, 0, 0);
        assert!(out.ports.is_empty());
        assert_eq!(out.actions, vec![(0, Action::Custom("mirror".into(), vec![9]))]);
    }

    #[test]
    fn down_port_suppresses_and_counts() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 10)).build();
        sw.set_port_down(1, true);
        assert!(sw.port_is_down(1));
        let out = sw.process(&pkt, 0, 0);
        assert!(out.ports.is_empty());
        assert_eq!(sw.stats().dropped_messages, 1);
        assert_eq!(sw.stats().dropped_port_down, 1);
        assert_eq!(sw.stats().dropped_no_route, 0, "loss attributed to the dead port");
        // Restoring the port resumes forwarding with no reinstall.
        sw.set_port_down(1, false);
        let out = sw.process(&pkt, 0, 1);
        assert_eq!(out.ports.len(), 1);
        assert_eq!(sw.stats().dropped_messages, 1);
    }

    #[test]
    fn multicast_survives_partial_port_failure() {
        let mut sw = itch_switch(
            "stock == GOOGL: fwd(1)\n\
             price > 5: fwd(2)\n",
        );
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 10)).build();
        sw.set_port_down(1, true);
        let out = sw.process(&pkt, 0, 0);
        let ports: Vec<Port> = out.ports.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![2], "surviving port still served");
        assert_eq!(sw.stats().dropped_port_down, 1);
        assert_eq!(sw.stats().dropped_messages, 0, "the message did leave the switch");
    }

    #[test]
    fn drop_causes_attribute_no_route_and_resource() {
        // No-route: ingress-only match.
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 10)).build();
        sw.process(&pkt, 1, 0);
        assert_eq!(sw.stats().dropped_no_route, 1);
        assert_eq!(sw.stats().dropped_port_down, 0);

        // Resource: PHV/recirculation budget truncation.
        let statics = compile_static(&itch_spec()).unwrap();
        let rules = parse_rules("stock == GOOGL: fwd(1)\n").unwrap();
        let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
        let cfg = SwitchConfig { max_msgs_per_pass: 2, recirc_ports: 1, ..Default::default() };
        let mut sw = Switch::new(&statics, compiled.pipeline, cfg);
        let mut b = PacketBuilder::new(&spec);
        for _ in 0..7 {
            b = b.message(order("GOOGL", 1));
        }
        sw.process(&b.build(), 0, 0);
        assert_eq!(sw.stats().dropped_resource, sw.stats().truncated_messages);
        assert_eq!(sw.stats().dropped_resource, 3);
    }

    #[test]
    fn copy_on_prune_shares_unpruned_buffers() {
        let mut sw = itch_switch("price > 0: fwd(1)\n");
        let spec = itch_spec();
        // Every message kept: the output copy shares the input buffer.
        let pkt = PacketBuilder::new(&spec).message(order("A", 1)).message(order("B", 2)).build();
        let out = sw.process(&pkt, 0, 0);
        assert_eq!(out.ports.len(), 1);
        assert_eq!(out.ports[0].1, pkt);
        assert_eq!(sw.stats().shared_copies, 1);
        assert_eq!(sw.stats().deep_copies, 0);
        // One message pruned: a materialised copy is unavoidable.
        let pkt = PacketBuilder::new(&spec).message(order("A", 9)).message(order("B", 0)).build();
        let out = sw.process(&pkt, 0, 1);
        assert_eq!(out.ports[0].1.message_count(&spec), 1);
        assert_eq!(sw.stats().shared_copies, 1);
        assert_eq!(sw.stats().deep_copies, 1);
        assert_eq!(sw.stats().copies, 2);
    }

    #[test]
    fn stack_only_copies_are_shared() {
        let spec = camus_lang::spec::int_spec();
        let statics = compile_static(&spec).unwrap();
        let rules = parse_rules("switch_id == 2: fwd(3)\n").unwrap();
        let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
        let mut sw = Switch::new(&statics, compiled.pipeline, SwitchConfig::default());
        let pkt = PacketBuilder::new(&spec).stack_field("int_report", "switch_id", 2i64).build();
        sw.process(&pkt, 0, 0);
        assert_eq!(sw.stats().shared_copies, 1);
        assert_eq!(sw.stats().deep_copies, 0);
    }

    #[test]
    fn process_batch_counts_batch_sizes() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let pkts: Vec<(Packet, Port)> = (0..5)
            .map(|i| (PacketBuilder::new(&spec).message(order("GOOGL", i)).build(), 0))
            .collect();
        let mut outs = Vec::new();
        sw.process_batch_indexed(&pkts, 0, &mut outs);
        assert_eq!(outs.len(), 5);
        assert!(outs.iter().all(|o| o.ports.len() == 1));
        assert_eq!(sw.stats().batches, 1);
        assert_eq!(sw.stats().batched_packets, 5);
        assert_eq!(sw.stats().packets, 5);
    }

    #[test]
    fn eval_counters_accumulate() {
        let mut sw = itch_switch("stock == GOOGL and price > 50: fwd(1)\n");
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec)
            .message(order("GOOGL", 60))
            .message(order("MSFT", 10))
            .build();
        sw.process(&pkt, 0, 0);
        let s = sw.stats();
        assert!(s.stage_hits > 0, "matching message transitions stages");
        assert!(s.entries_scanned > 0);
        assert_eq!(s.stage_hits + s.stage_misses, 2 * sw.compiled().depth() as u64);
    }

    #[test]
    fn fast_path_matches_reference_path() {
        let rules = "stock == GOOGL and avg(price) > 40: fwd(1)\n\
                     price > 25: fwd(2)\n\
                     shares < 100 and price >= 30: fwd(3)\n\
                     side == 1: drop()\n";
        let mut fast = itch_switch(rules);
        let mut reference = fast.clone();
        let spec = itch_spec();
        let feeds = [
            vec![order("GOOGL", 50)],
            vec![order("GOOD", 10), order("MSFT", 30)],
            vec![order("GOOGL", 80), order("GOOGL", 5), order("AAPL", 26)],
            vec![],
        ];
        for (t, msgs) in feeds.iter().enumerate() {
            let mut b = PacketBuilder::new(&spec).stack_field("moldudp", "seq", t as i64);
            for m in msgs {
                b = b.message(m.clone());
            }
            let pkt = b.build();
            let a = fast.process(&pkt, 0, t as u64 * 10);
            let r = reference.process_reference(&pkt, 0, t as u64 * 10);
            assert_eq!(a.ports, r.ports, "packet {t}");
            assert_eq!(a.actions, r.actions, "packet {t}");
            assert_eq!(a.latency_ns, r.latency_ns);
            assert_eq!(a.passes, r.passes);
        }
        let (f, r) = (fast.stats(), reference.stats());
        assert_eq!(f.messages, r.messages);
        assert_eq!(f.dropped_messages, r.dropped_messages);
        assert_eq!(f.copies, r.copies);
        assert_eq!(f.dropped_no_route, r.dropped_no_route);
    }

    #[test]
    fn install_swaps_pipeline_keeps_state() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 1)).build();
        assert_eq!(sw.process(&pkt, 0, 0).ports.len(), 1);
        // Reconfigure: now only MSFT is interesting.
        let statics = compile_static(&itch_spec()).unwrap();
        let rules = parse_rules("stock == MSFT: fwd(2)\n").unwrap();
        let compiled = Compiler::new().with_static(statics).compile(&rules).unwrap();
        sw.install(compiled.pipeline);
        assert!(sw.process(&pkt, 0, 1).ports.is_empty());
    }

    fn compile_itch(rules_src: &str) -> Pipeline {
        let statics = compile_static(&itch_spec()).unwrap();
        let rules = parse_rules(rules_src).unwrap();
        Compiler::new().with_static(statics).compile(&rules).unwrap().pipeline
    }

    #[test]
    fn failed_install_preserves_previous_program() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        sw.config.budget = ResourceBudget { max_tables: 1, ..ResourceBudget::unlimited() };
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 1)).build();
        assert_eq!(sw.process(&pkt, 0, 0).ports.len(), 1);
        let before_pipeline = sw.pipeline().clone();
        let before_stats = sw.stats();

        let err = sw.try_install(compile_itch("stock == MSFT: fwd(2)\n")).unwrap_err();
        let InstallError::OverBudget(adm) = &err;
        assert!(!adm.violations.is_empty());

        // The previous compiled pipeline, keep-lists and stats are
        // untouched, and forwarding is byte-identical.
        assert_eq!(sw.pipeline(), &before_pipeline);
        assert_eq!(sw.stats(), before_stats);
        assert!(!sw.has_staged());
        let out = sw.process(&pkt, 0, 1);
        assert_eq!(out.ports.len(), 1);
        assert_eq!(out.ports[0].0, 1);
        assert_eq!(out.ports[0].1, pkt);
    }

    #[test]
    fn staged_program_only_forwards_after_commit() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let googl = PacketBuilder::new(&spec).message(order("GOOGL", 1)).build();
        let msft = PacketBuilder::new(&spec).message(order("MSFT", 1)).build();

        sw.stage(compile_itch("stock == MSFT: fwd(2)\n")).unwrap();
        assert!(sw.has_staged());
        // Shadow program does not affect the data path.
        assert_eq!(sw.process(&googl, 0, 0).ports.len(), 1);
        assert!(sw.process(&msft, 0, 1).ports.is_empty());

        assert!(sw.commit_staged());
        assert!(sw.process(&googl, 0, 2).ports.is_empty());
        assert_eq!(sw.process(&msft, 0, 3).ports.len(), 1);

        // The commit can still be reverted until finalised.
        assert!(sw.revert_committed());
        assert_eq!(sw.process(&googl, 0, 4).ports.len(), 1);
        assert!(!sw.revert_committed(), "retired program consumed");

        // A finalised commit is permanent.
        sw.stage(compile_itch("stock == MSFT: fwd(2)\n")).unwrap();
        sw.commit_staged();
        sw.finalize_install();
        assert!(!sw.revert_committed());
        assert_eq!(sw.process(&msft, 0, 5).ports.len(), 1);
    }

    #[test]
    fn abort_staged_discards_shadow_program() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        sw.stage(compile_itch("stock == MSFT: fwd(2)\n")).unwrap();
        assert!(sw.abort_staged());
        assert!(!sw.abort_staged());
        assert!(!sw.commit_staged(), "nothing staged after abort");
        let spec = itch_spec();
        let googl = PacketBuilder::new(&spec).message(order("GOOGL", 1)).build();
        assert_eq!(sw.process(&googl, 0, 0).ports.len(), 1);
    }

    #[test]
    fn prepared_program_is_shared_only_across_equal_specs() {
        // Same messages as ITCH with `shares` and `price` swapped on the
        // wire: a slot plan resolved against ITCH would read `shares`
        // where this spec keeps `price`.
        let swapped = Spec::parse(
            r#"
            header moldudp {
                bit<64> session;
                bit<64> seq;
                bit<16> msg_count;
            }
            header itch_order {
                bit<16>  length;
                bit<8>   msg_type;
                @field       bit<32> price;
                @field       bit<32> shares;
                @field_exact str<8>  stock;
                @field       bit<8>  side;
            }
            sequence moldudp
            messages itch_order
            "#,
        )
        .unwrap();
        let itch = itch_switch("stock == GOOGL: fwd(1)\n");
        let program = itch.prepare(compile_itch("price > 50: fwd(2)\n"));

        let mut twin = itch_switch("stock == GOOGL: fwd(1)\n");
        twin.stage_prepared(&program, 3).unwrap();
        twin.commit_staged();
        assert!(std::ptr::eq(twin.compiled(), program.compiled()), "equal specs share");

        let mut other = Switch::from_spec(swapped.clone(), Pipeline::empty(), Default::default());
        other.stage_prepared(&program, 3).unwrap();
        assert_eq!(other.staged_epoch(), Some(3));
        other.commit_staged();
        assert!(!std::ptr::eq(other.compiled(), program.compiled()), "re-lowered");
        assert_eq!(other.pipeline(), program.pipeline());
        let msg = |price: i64, shares: i64| {
            PacketBuilder::new(&swapped)
                .message(vec![
                    ("stock", Value::from("MSFT")),
                    ("price", Value::Int(price)),
                    ("shares", Value::Int(shares)),
                ])
                .build()
        };
        assert_eq!(other.process(&msg(60, 10), 0, 0).ports.len(), 1);
        assert!(other.process(&msg(10, 60), 0, 1).ports.is_empty());
    }

    #[test]
    fn malformed_packets_counted_in_both_paths() {
        let mut fast = itch_switch("stock == GOOGL: fwd(1)\n");
        let mut reference = fast.clone();
        let spec = itch_spec();
        let good = PacketBuilder::new(&spec).message(order("GOOGL", 1)).build();
        // Chop off the last byte: a partial trailing message.
        let truncated = Packet::new(good.bytes[..good.len() - 1].into());
        for sw in [&mut fast, &mut reference] {
            assert_eq!(sw.process(&good, 0, 0).ports.len(), 1);
        }
        let f = fast.process(&truncated, 0, 1);
        let r = reference.process_reference(&truncated, 0, 1);
        assert_eq!(f.ports, r.ports, "graceful miss in both paths");
        assert_eq!(fast.stats().malformed, 1);
        assert_eq!(reference.stats().malformed, 1);
        assert_eq!(fast.stats().malformed, reference.stats().malformed);
    }
}
