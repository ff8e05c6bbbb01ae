//! End-to-end CNN scenario: convert a (tiny proxy) ResNet with LUTBoost,
//! deploy it at BF16+INT8, serve single images through a whole-model
//! `ModelSession`, and size the accelerator for the full ResNet-18
//! workload against NVDLA and Gemmini.
//!
//! ```sh
//! cargo run --release --example resnet_accelerator [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the dataset and training budget to a CI-sized run.

use lutdla::prelude::*;
use lutdla_lutboost::fresh_pretrained_convnet;
use lutdla_models::trainable::resnet20_mini;
use lutdla_nn::data::{synthetic_images, ImageTaskConfig};
use lutdla_nn::{eval_images, train_epoch_images, Optimizer, Sgd};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // --- 1. Train the dense baseline on the CIFAR-10 proxy. --------------
    let data_cfg = if smoke {
        ImageTaskConfig {
            num_classes: 4,
            n_train: 96,
            n_test: 48,
            noise: 0.25,
            ..ImageTaskConfig::cifar10_proxy()
        }
    } else {
        ImageTaskConfig::cifar10_proxy()
    };
    let epochs = if smoke { 3 } else { 8 };
    let (train, test) = synthetic_images(&data_cfg);
    let mut ps = ParamSet::new();
    let net = resnet20_mini(&mut ps, data_cfg.num_classes);
    let cfg = *net.config();
    let mut opt = Optimizer::Sgd(Sgd::new(0.05, 0.9, 1e-4));
    for epoch in 0..epochs {
        let stats = train_epoch_images(&net, &mut ps, &mut opt, &train, 32);
        println!(
            "baseline epoch {epoch}: loss {:.3} acc {:.3}",
            stats.loss, stats.accuracy
        );
    }
    let baseline = eval_images(&net, &ps, &test, 32);
    println!("dense baseline test accuracy: {:.1}%\n", baseline * 100.0);

    // --- 2. LUTBoost multistage conversion (v=4, c=16, L1 similarity). ---
    let schedule = if smoke {
        TrainSchedule {
            centroid_epochs: 1,
            joint_epochs: 1,
            ..TrainSchedule::default()
        }
    } else {
        TrainSchedule::default()
    };
    let (mut lut_net, mut lut_ps) = fresh_pretrained_convnet(cfg, &ps);
    let outcome = convert_and_train_images(
        &mut lut_net,
        &mut lut_ps,
        Strategy::Multistage,
        LutConfig {
            v: 4,
            c: 16,
            distance: Distance::L1,
            recon_weight: 0.05,
        },
        ConvertPolicy::default(),
        &schedule,
        &train,
        &test,
        1,
    );
    println!(
        "LUT model (train-path) accuracy: {:.1}% (baseline {:.1}%)",
        outcome.test_accuracy * 100.0,
        baseline * 100.0
    );

    // --- 3. Deploy: BF16 similarity + INT8 tables, evaluated through the
    //        exact table-lookup path the IMM executes. The LutRuntime owns
    //        the tiled engines; a re-deploy at this parameter version would
    //        be served from its cache. -------------------------------------
    let mut rt = LutRuntime::new(DeployConfig::bf16_int8());
    let deployed = eval_images_deployed(
        &mut rt,
        &lut_net,
        &lut_ps,
        &test,
        32,
        DeployConfig::bf16_int8(),
    );
    println!("deployed (BF16+INT8) accuracy: {:.1}%\n", deployed * 100.0);

    // --- 4. Whole-model serving: submit single images through every
    //        deployed layer. The session compiles one plan per dense unit
    //        (a cached LUT engine the layer calls directly, or the dense
    //        path) and resolves Pending handles with final logits —
    //        bit-identical to the batched eval above. -----------------------
    let session = rt.serve(&lut_net, &lut_ps).build_model();
    println!(
        "ModelSession: {} LUT stages + {} dense units (engine cache: {:?})",
        session.lut_stages(),
        session.plan().len() - session.lut_stages(),
        rt.stats(),
    );
    let n_serve = 8.min(test.len());
    let handles: Vec<_> = (0..n_serve)
        .map(|i| {
            let (image, label) = test.example(i);
            (session.submit(image).expect("valid image"), label)
        })
        .collect();
    session.flush();
    let mut correct = 0;
    for (handle, label) in handles {
        let logits = handle.wait().expect("session alive");
        // First-wins tie-break, matching the eval path's argmax.
        let mut pred = 0;
        for (j, &v) in logits.iter().enumerate() {
            if v > logits[pred] {
                pred = j;
            }
        }
        correct += usize::from(pred == label);
    }
    println!("served {n_serve} single-image requests end-to-end: {correct}/{n_serve} correct");
    println!("per-stage serving stats (one engine call per stage per flush):");
    for (name, stats) in session.stage_stats() {
        println!(
            "  {name:<16} rows {:>6} | calls {:>3} | service {:>8.3} ms",
            stats.rows_served,
            stats.batches_run,
            stats.service_nanos as f64 / 1e6,
        );
    }
    println!();
    drop(session);

    // --- 5. Size the accelerator for the full ResNet-18 workload. --------
    let workload = zoo::resnet_imagenet(18, 1000);
    let design = design2();
    let report = simulate_workload(&design.sim_config(), &workload, 1);
    let gemms = workload_gemms(&workload, 1);
    let nvdla = nvdla_model(&NvdlaConfig::large(), &gemms);
    let gemmini = systolic_model(&SystolicConfig::gemmini(), &gemms);
    println!("ResNet-18 (batch 1) end-to-end:");
    println!(
        "  {:24} {:>10.2} ms  {:>8.0} GOPS  {:>8.2} mJ",
        design.name,
        report.time_s * 1e3,
        report.effective_gops(),
        report.energy.total_mj()
    );
    println!(
        "  {:24} {:>10.2} ms  {:>8.0} GOPS  {:>8.2} mJ",
        "NVDLA-Large",
        nvdla.time_s * 1e3,
        nvdla.gops,
        nvdla.energy_mj
    );
    println!(
        "  {:24} {:>10.2} ms  {:>8.0} GOPS  {:>8.2} mJ",
        "Gemmini",
        gemmini.time_s * 1e3,
        gemmini.gops,
        gemmini.energy_mj
    );
    println!(
        "\nspeedup vs NVDLA-Large: {:.1}x; energy saving: {:.1}x",
        nvdla.time_s / report.time_s,
        nvdla.energy_mj / report.energy.total_mj()
    );
}
