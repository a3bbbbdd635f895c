"""ARGO end to end: wrap a training function, let the auto-tuner pick the
configuration online, keep training with the best one (paper Listing 3).

This runs *real* training: the tuner's observations are actual wall-clock
epoch times of the Multi-Process Engine on this machine, so the chosen
configuration reflects your hardware (on a laptop that usually means few
processes; on a wide server, more).

Run:  python examples/products_autotune.py
"""

from repro import (
    ARGO,
    ConfigSpace,
    evaluate_accuracy,
    load_dataset,
    make_task,
    make_train_fn,
)


def main():
    dataset = load_dataset("ogbn-products", seed=0, scale_override=11)
    sampler, model = make_task(
        "neighbor-sage", dataset.layer_dims(2), seed=0, fanouts=[10, 5]
    )

    # The design space for a (pretend) 16-core box: (n, samp, train) with
    # n*(samp+train) <= 16.  On the paper's machines you would use
    # ConfigSpace.for_platform(ICE_LAKE_8380H).
    space = ConfigSpace(16, max_processes=8)
    print(f"design space: {len(space)} configurations, "
          f"search budget {space.paper_budget()} epochs (5%)")

    # Listing 3: the train function takes config + epochs and returns
    # measured epoch times; make_train_fn builds it around the engine.
    train = make_train_fn(dataset, sampler, model, global_batch_size=256, seed=0)

    runtime = ARGO(n_search=space.paper_budget(), epoch=30, space=space, seed=0)
    try:
        result = runtime.run(train)
    finally:
        # stop the train fn's engine: its persistent worker pools and
        # shared-memory stores stayed warm between the tuner's launches
        train.close()

    print("\nsearch history (config -> epoch seconds):")
    for cfg, t in result.search_history:
        print(f"  {cfg}  {t:6.3f}s")
    print(f"\nbest configuration: {result.best_config}")
    print(f"search epochs: {result.search_epochs}, exploit epochs: {len(result.exploit_epoch_times)}")
    print(f"tuner overhead: {result.tuner_overhead_seconds * 1e3:.1f} ms "
          f"({result.tuner_memory_bytes / 1e6:.2f} MB surrogate)")
    print(f"end-to-end time: {result.total_time:.2f}s")

    acc = evaluate_accuracy(dataset, sampler, model, seed=0)
    print(f"test accuracy after ARGO-managed training: {acc:.3f}")


if __name__ == "__main__":
    main()
