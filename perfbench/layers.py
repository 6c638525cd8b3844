"""Per-layer metrics of a traced run, and the predictions they test.

Layers are the ``defalg`` modules.  Which end-to-end metric each layer
metric should move, and on which workload, is written down in
``perfbench/README.md``.
"""

import statistics

LAYERS = ("linalg", "graded", "algebras", "dgla", "linfty", "obstruction", "models",
          "docio", "cli")

# metric -> qualified name whose outermost calls are timed (inclusive)
INCLUSIVE = {"algebras.validate_s": "algebras.NilpotentDgAlgebra.validate",
             "dgla.tensor_s": "dgla.tensor_dgla",
             "dgla.validate_s": "dgla.Dgla.validate",
             "dgla.mc_lift_s": "dgla.mc_lift",
             "dgla.gauge_s": "dgla.gauge_equivalent",
             "linfty.check_s": "linfty.check_linfty",
             "obstruction.class_s": "obstruction.obstruction_class",
             "models.prorepresent_s": "models.kuranishi_prorepresent",
             "models.minimalize_s": "models.minimalize"}

# metric -> qualified name whose calls are counted
CALLS = {"linalg.rref_calls": "linalg.rref",
         "linalg.solve_calls": "linalg.solve",
         "graded.cohomology_calls": "graded.cohomology",
         "algebras.product_calls": "algebras.NilpotentDgAlgebra.product",
         "algebras.power_ideal_bases_calls": "algebras.NilpotentDgAlgebra.power_ideal_bases",
         "dgla.tensor_calls": "dgla.tensor_dgla",
         "dgla.bracket_vec_calls": "dgla.Dgla.bracket_vec"}

# The metrics on the last output line of a traced run (BENCHMARK.json
# "per_layer"): the self times of the layers every workload uses, the work
# counts and the tracing overhead.  The other times above read exactly 0 on
# a workload that never calls them, so they are printed and saved but not
# reported there.
REPORTED = ["linalg.self_s", "graded.self_s", "algebras.self_s", "dgla.self_s",
            "docio.self_s", "cli.self_s",
            "linalg.rref_calls", "linalg.rref_cells", "linalg.rref_max_bits",
            "linalg.independent_subset_vectors", "linalg.solve_calls",
            "graded.cohomology_calls", "graded.cohomology_dim_sum",
            "algebras.product_calls", "algebras.power_ideal_bases_calls",
            "dgla.tensor_calls", "dgla.tensor_dim_sum", "dgla.bracket_vec_calls",
            "docio.bytes", "trace.overhead_ratio"]

PREDICTIONS = {
    "kuranishi": ("tensor construction (dgla.tensor_s) is over half the job time",
                  lambda s: s["tensor_share"] > 0.5),
    "lift": ("linalg has the largest self time", lambda s: s["top_layer"] == "linalg"),
    "validate": ("structure-constant products (product, bracket_vec) are over "
                 "half the job time", lambda s: s["products_share"] > 0.5),
}


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bits"):
        return "bits"
    if metric == "docio.bytes":
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def round_metrics(self_ns, totals, counters):
    """Every per-layer value of one traced round."""
    calls, incl, own = totals
    out = {layer + ".self_s": self_ns.get(layer, 0) / 1e9 for layer in LAYERS}
    out.update({m: incl.get(name, 0.0) for m, name in INCLUSIVE.items()})
    out.update({m: calls.get(name, 0) for m, name in CALLS.items()})
    out.update(counters)
    out["bench.self_s"] = self_ns.get("bench", 0) / 1e9
    out["trace.count_s"] = self_ns.get("trace", 0) / 1e9
    out["products_s"] = incl.get(CALLS["algebras.product_calls"], 0.0) + \
        incl.get(CALLS["dgla.bracket_vec_calls"], 0.0)
    return out, own


def summarize(workload, traced, untraced_round_s):
    """Median per-layer values over traced rounds, shares and predictions.

    Returns (all values, report, problems); a problem is raised when work
    counts differ between rounds that ran the same inputs.
    """
    rounds, owns, job_s = [], [], []
    for _, results, (self_ns, totals, counters) in traced:
        m, own = round_metrics(self_ns, totals, counters)
        rounds.append(m)
        owns.append(own)
        job_s.append(sum(r.seconds for r in results))
    problems = []
    counts = [{k: v for k, v in m.items() if unit_of(k) != "s"} for m in rounds]
    if any(c != counts[0] for c in counts):
        problems.append("traced work counts differ between rounds of the same inputs")
    values = {k: statistics.median(m[k] for m in rounds) for k in rounds[0]}
    values["trace.overhead_ratio"] = statistics.median(r[0] for r in traced) / \
        untraced_round_s
    job = statistics.median(job_s)
    selfs = {layer: values[layer + ".self_s"] for layer in LAYERS}
    names = {}
    for own in owns:
        for n, v in own.items():
            names.setdefault(n, []).append(v)
    top_names = sorted(((statistics.median(v), n) for n, v in names.items()), reverse=True)
    report = {
        "traced_job_s": job,
        "self_share": {k: v / job for k, v in selfs.items()},
        "top_layer": max(selfs, key=selfs.get),
        "tensor_share": values["dgla.tensor_s"] / job,
        "products_share": values.pop("products_s") / job,
        "docio_cli_share": (selfs["docio"] + selfs["cli"]) / job,
        "top_self_names": [(n, v) for v, n in top_names[:12]],
    }
    text, test = PREDICTIONS[workload]
    report["prediction"] = text
    report["prediction_holds"] = bool(test(report))
    report["docio_cli_few_percent"] = report["docio_cli_share"] <= 0.05
    return values, report, problems


def print_report(workload, values, report):
    print("traced job time per round %.4g s; self-time shares: %s" % (
        report["traced_job_s"], ", ".join(
            "%s %.1f%%" % (k, 100 * v) for k, v in
            sorted(report["self_share"].items(), key=lambda kv: -kv[1]))))
    print("largest self times: %s" % ", ".join(
        "%s %.3gs" % nv for nv in report["top_self_names"][:6]))
    print("tensor construction %.1f%%, structure-constant products %.1f%%, "
          "docio+cli %.1f%% of traced job time" % (
              100 * report["tensor_share"], 100 * report["products_share"],
              100 * report["docio_cli_share"]))
    print("prediction for %s: %s -> %s" % (
        workload, report["prediction"], "holds" if report["prediction_holds"] else "refuted"))
    print("prediction: docio+cli take a few percent at most -> %s" % (
        "holds" if report["docio_cli_few_percent"] else "refuted"))
    for name in sorted(values):
        print("layer %-36s %.6g %s" % (name, values[name], unit_of(name)))
