//! Set-up of the served system and the in-process score oracle.

use crate::gen::{Inputs, Workload};
use pretzel_core::frontend::{Client, FrontEnd, FrontEndConfig, PredictRequest};
use pretzel_core::lifecycle::DeployOptions;
use pretzel_core::physical::SourceRef;
use pretzel_core::runtime::{PlanId, Runtime, RuntimeConfig};
use pretzel_data::{DataError, Result};
use std::sync::Arc;
use std::time::Instant;

/// Server shape: constants, not read from `nproc`, so the same code is
/// measured on every host.
pub const N_EXECUTORS: usize = 2;
const REACTOR_THREADS: usize = 1;

/// A running `Runtime` + `FrontEnd` with every model deployed.
pub struct Server {
    pub runtime: Arc<Runtime>,
    pub frontend: FrontEnd,
    /// The admin connection (deploys, undeploys, `STATS`).
    pub admin: Client,
    /// The plan serving each target (version 0 on `churn_mixed`).
    pub plan_ids: Vec<PlanId>,
    /// Wall time of [`Server::set_up`].
    pub setup_s: f64,
}

fn io_err(e: std::io::Error) -> DataError {
    DataError::Runtime(format!("benchmark io: {e}"))
}

/// A single-row request carrying pool row `i`.
fn single_request(inputs: &Inputs, i: usize) -> PredictRequest {
    if inputs.workload.is_text() {
        PredictRequest::text(inputs.lines[i].as_str())
    } else {
        PredictRequest::dense(inputs.dense[i].clone())
    }
}

impl Server {
    /// What `setup_s` times: start the runtime and the front end, deploy
    /// every model over TCP, and score one cold request per plan.
    pub fn set_up(inputs: &Inputs) -> Result<Server> {
        let t0 = Instant::now();
        let runtime = Arc::new(Runtime::new(RuntimeConfig {
            n_executors: N_EXECUTORS,
            ..RuntimeConfig::default()
        }));
        let frontend = FrontEnd::serve(
            Arc::clone(&runtime),
            FrontEndConfig {
                reactor_threads: REACTOR_THREADS,
                ..FrontEndConfig::default()
            },
        )
        .map_err(io_err)?;
        let mut admin = Client::connect_v2(frontend.addr()).map_err(io_err)?;
        let churn = inputs.workload == Workload::ChurnMixed;
        let mut plan_ids = Vec::with_capacity(inputs.images.len());
        for (target, versions) in inputs.images.iter().enumerate() {
            let alias = churn.then(|| Inputs::alias(target));
            plan_ids.push(admin.deploy(&versions[0], alias.as_deref(), false)?);
        }
        for (target, &id) in plan_ids.iter().enumerate() {
            admin.predict(&single_request(inputs, target).plan(id))?;
        }
        Ok(Server {
            runtime,
            frontend,
            admin,
            plan_ids,
            setup_s: t0.elapsed().as_secs_f64(),
        })
    }

    /// Stops the front end and joins every server thread.
    pub fn shut_down(self) {
        drop(self.admin);
        self.frontend.stop();
        // A batch's completion callback holds the runtime until the executor
        // that ran its last chunk lets go, a moment after the response went
        // out. Dropping our handle first would run the runtime's destructor,
        // which joins the executors, on an executor (EDEADLK panic).
        let patience = Instant::now();
        while Arc::strong_count(&self.runtime) > 1 && patience.elapsed().as_secs() < 1 {
            std::thread::yield_now();
        }
        drop(self.runtime);
    }

    fn predict_in_process(&self, inputs: &Inputs, plan: PlanId, i: usize) -> Result<f32> {
        let source = if inputs.workload.is_text() {
            SourceRef::Text(&inputs.lines[i])
        } else {
            SourceRef::Dense(&inputs.dense[i])
        };
        self.runtime.predict_source(plan, source)
    }

    /// The expected score of every schedule row, `[version][row]`, from
    /// `Runtime::predict_source` on the served runtime. `churn_mixed`
    /// deploys each later version in process just long enough to score it.
    pub fn oracle(&self, inputs: &Inputs) -> Result<Vec<Vec<f32>>> {
        let per_request = inputs.workload.rows_per_request();
        let mut expected = vec![vec![0f32; inputs.rows.len()]; inputs.n_versions()];
        // Rows grouped by target, so each later version is live only once.
        let mut by_target: Vec<Vec<usize>> = vec![Vec::new(); inputs.images.len()];
        for row in 0..inputs.rows.len() {
            by_target[inputs.targets[row / per_request] as usize].push(row);
        }
        for (target, rows) in by_target.iter().enumerate() {
            for (version, image) in inputs.images[target].iter().enumerate() {
                let temporary = version > 0;
                let plan = if temporary {
                    self.runtime.deploy(image, DeployOptions::default())?
                } else {
                    self.plan_ids[target]
                };
                for &row in rows {
                    expected[version][row] =
                        self.predict_in_process(inputs, plan, inputs.rows[row] as usize)?;
                }
                if temporary {
                    self.runtime.undeploy(plan)?;
                }
            }
        }
        Ok(expected)
    }
}
