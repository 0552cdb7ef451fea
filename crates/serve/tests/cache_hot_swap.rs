//! The response cache must never serve one model version's answer
//! under another version's label. Hot keys are in flight while the
//! registry publishes new versions, and every response must equal, bit
//! for bit, the direct `ServableModel::infer_*` output of the version it
//! is stamped with.

use ltfb_gan::{CycleGan, CycleGanConfig};
use ltfb_serve::{BatchPolicy, Completion, ModelRegistry, ReqKind, ServableModel, Server};
use ltfb_tensor::Matrix;
use std::collections::BTreeMap;
use std::sync::Arc;

const LAST_VERSION: u64 = 6;

fn expected(model: &ServableModel, kind: ReqKind, input: &[f32]) -> Vec<f32> {
    let m = Matrix::from_vec(1, input.len(), input.to_vec());
    let out = match kind {
        ReqKind::Forward => model.infer_forward(&m),
        ReqKind::Inverse => model.infer_inverse(&m),
    };
    out.row(0).to_vec()
}

#[test]
fn cached_responses_match_the_version_they_are_stamped_with() {
    let cfg = CycleGanConfig::small(4);
    let models: BTreeMap<u64, ServableModel> = (1..=LAST_VERSION)
        .map(|v| (v, ServableModel::new(CycleGan::new(cfg, v), v)))
        .collect();
    let registry = Arc::new(ModelRegistry::new(CycleGan::new(cfg, 1), 1));
    let server = Server::start(
        Arc::clone(&registry),
        BatchPolicy {
            workers: 2,
            cache_capacity: 64,
            ..BatchPolicy::default()
        },
    );
    let hot_x = vec![0.25f32; registry.current().x_dim()];
    let hot_y = vec![0.5f32; registry.current().y_dim()];
    let input = |kind: ReqKind| match kind {
        ReqKind::Forward => &hot_x,
        ReqKind::Inverse => &hot_y,
    };
    let check = |kind: ReqKind, c: &Completion| {
        let want = expected(&models[&c.version], kind, input(kind));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(&c.output) == bits(&want),
            "{kind:?} response stamped v{} is not v{}'s answer",
            c.version,
            c.version
        );
    };
    let client = server.client();
    let kinds = [ReqKind::Forward, ReqKind::Inverse].repeat(4);

    // Each publish lands while the hot keys are queued: every batch
    // answers from whichever snapshot is current when it starts.
    for v in 2..=LAST_VERSION {
        let pending: Vec<_> = kinds
            .iter()
            .map(|&kind| (kind, client.submit(kind, input(kind)).expect("accepted")))
            .collect();
        registry.publish(CycleGan::new(cfg, v), v).unwrap();
        for (kind, r) in pending {
            check(kind, &r.wait_completion().expect("served"));
        }
    }
    // The hot keys were cached under earlier versions; after the last
    // publish every answer must be the last version's.
    for &kind in &kinds {
        let c = client
            .submit(kind, input(kind))
            .and_then(|r| r.wait_completion())
            .expect("served");
        assert_eq!(c.version, LAST_VERSION);
        check(kind, &c);
    }
    let stats = server.shutdown();
    assert!(stats.cache_hits > 0, "the hot keys never hit the cache");
}
