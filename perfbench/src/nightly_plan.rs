//! `nightly_plan`: the two-cluster nightly DAG at paper scale (the
//! 9180-task prediction workload, FFDT-DC packing, failover and deadline
//! shedding on) under a chaos campaign, plus one quiet night and a direct
//! pack + Slurm run of its tasks. No epidemic is simulated: the
//! orchestrator and the cluster model do all the work.

use crate::host::Fnv;
use crate::trace::Tracer;
use crate::workload::{mix, Checks, Derive, Workload};
use epiflow::core::{CombinedReport, CombinedWorkflow};
use epiflow::hpcsim::schedule::pack;
use epiflow::hpcsim::slurm::SlurmSim;
use epiflow::hpcsim::task::WorkloadSpec;
use epiflow::orchestrator::{
    CampaignSpec, DeadlinePolicy, Engine, FailoverPolicy, FaultProfile, NightlySpec,
};
use epiflow::surveillance::{RegionRegistry, Scale};
use std::time::Instant;

const INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];
const NIGHTS_PER_INTENSITY: usize = 2;
/// The campaign's fault schedule is fixed, like its intensities: at two
/// nights per intensity, a seed-drawn schedule would swing an
/// iteration's work by half with the number of total cluster losses it
/// happens to draw. The seed draws the night's task runtimes instead.
const CAMPAIGN_SEED: u64 = 2021;

pub struct NightlyPlan {
    engine: Engine,
    campaign: CampaignSpec,
    iteration: usize,
    digest: u64,
}

impl Workload for NightlyPlan {
    fn setup(seed: u64, t: &Tracer) -> Self {
        let registry = RegionRegistry::new();
        let workflow = CombinedWorkflow {
            workload: WorkloadSpec { seed: mix(seed, 1), ..WorkloadSpec::prediction() },
            failover: FailoverPolicy::on(),
            deadline: DeadlinePolicy { shed_cells: true },
            ..Default::default()
        };
        let engine =
            t.span("orchestrator.engine_build", || workflow.engine(&registry, Scale::default()));
        let campaign = CampaignSpec {
            nightly: NightlySpec { failover: FailoverPolicy::on(), ..NightlySpec::default() },
            tasks: engine.env.tasks.clone(),
            region_rows: engine.env.region_rows.clone(),
            deadline: workflow.deadline,
            intensities: INTENSITIES.to_vec(),
            nights_per_intensity: NIGHTS_PER_INTENSITY,
            base_seed: CAMPAIGN_SEED,
            profile: FaultProfile::Mixed,
        };
        NightlyPlan { engine, campaign, iteration: 0, digest: 0 }
    }

    fn warm_up(&mut self, t: &Tracer, checks: &mut Checks) {
        self.iterate(t, checks);
    }

    fn iterate(&mut self, t: &Tracer, checks: &mut Checks) -> f64 {
        let env = &self.engine.env;
        let bound = |_region: usize| (env.db_max_connections / env.conns_per_task.max(1)).max(1);

        let start = Instant::now();
        let campaign = t.span("orchestrator.campaign", || self.campaign.run());
        let quiet = t.span("orchestrator.night", || self.engine.run());
        let plan = t.span("hpcsim.pack", || pack(&env.tasks, env.remote.nodes, bound, env.algo));
        let order: Vec<usize> = plan.levels.iter().flat_map(|l| l.tasks.iter().copied()).collect();
        let slurm = t.span("hpcsim.slurm", || {
            SlurmSim::new(env.remote.clone()).run(&env.tasks, &order, bound)
        });
        let secs = start.elapsed().as_secs_f64();

        // Replay one campaign night serially, a different one each time.
        let k = self.iteration % campaign.outcomes.len();
        let replay = t.span("orchestrator.night", || {
            self.campaign.run_night(k / NIGHTS_PER_INTENSITY, (k % NIGHTS_PER_INTENSITY) as u64)
        });
        let journal_bytes = quiet.journal.to_jsonl().len();
        let quiet = CombinedReport::from_engine(quiet);

        checks.ops(campaign.outcomes.len() + 3);
        checks.check(replay == campaign.outcomes[k], || {
            format!("night {k} replayed with run_night differs from the campaign's result")
        });
        checks.check(
            campaign.outcomes.iter().filter(|o| o.intensity == 0.0).all(|o| o.within_window),
            || "a fault-free campaign night missed the window".to_string(),
        );
        checks.check(
            quiet.within_window
                && quiet.slurm.completed == quiet.n_tasks
                && quiet.dropped_cells.is_empty(),
            || "the quiet night did not finish every task inside the window".to_string(),
        );
        checks.check(slurm == quiet.slurm, || {
            "a direct pack + Slurm run of the quiet night's tasks differs from the night's"
                .to_string()
        });

        let mut h = Fnv::new();
        h.bytes(serde_json::to_string(&campaign).expect("serialize campaign report").as_bytes());
        h.bytes(serde_json::to_string(&quiet.slurm).expect("serialize Slurm stats").as_bytes());
        h.f64(quiet.cycle_secs);
        self.digest = h.0;
        self.iteration += 1;

        let nights = campaign.outcomes.len() as f64;
        let sum = |f: &dyn Fn(&epiflow::orchestrator::EventCounters) -> f64| {
            campaign.outcomes.iter().map(|o| f(&o.counters)).sum::<f64>()
        };
        t.count("hpcsim.tasks", env.tasks.len() as f64);
        t.count("hpcsim.levels", plan.levels.len() as f64);
        t.count("orchestrator.retries", sum(&|c| c.retries as f64));
        t.count("orchestrator.failovers", sum(&|c| c.failovers as f64));
        t.count("orchestrator.hedges", sum(&|c| c.hedges as f64));
        t.count("orchestrator.reroutes", sum(&|c| c.reroutes as f64));
        t.count("orchestrator.shed_cells", sum(&|c| c.shed_cells as f64));
        t.count("orchestrator.preemptions", sum(&|c| c.preemptions as f64));
        t.count("orchestrator.journal_bytes", journal_bytes as f64);
        t.count(
            "plan_makespan_h",
            campaign.outcomes.iter().map(|o| o.cycle_secs).sum::<f64>() / 3600.0 / nights,
        );
        t.count(
            "plan_success_rate",
            campaign.outcomes.iter().filter(|o| o.within_window).count() as f64 / nights,
        );
        t.count("plan_utilization", quiet.slurm.utilization);
        secs
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn layer_metrics(&self, d: &Derive) -> Vec<(&'static str, f64)> {
        let nights = d.trace.each_span_secs("orchestrator.night", d.iterations);
        let mut m = vec![
            ("hpcsim.pack_s", d.span("hpcsim.pack")),
            ("hpcsim.slurm_s", d.span("hpcsim.slurm")),
            ("orchestrator.night_s_p50", crate::stats::median(&nights)),
            ("orchestrator.night_s_max", nights.iter().copied().fold(0.0, f64::max)),
        ];
        for name in [
            "hpcsim.tasks",
            "hpcsim.levels",
            "orchestrator.retries",
            "orchestrator.failovers",
            "orchestrator.hedges",
            "orchestrator.reroutes",
            "orchestrator.shed_cells",
            "orchestrator.preemptions",
            "orchestrator.journal_bytes",
            "plan_makespan_h",
            "plan_success_rate",
            "plan_utilization",
        ] {
            m.push((name, d.count(name)));
        }
        m
    }
}
