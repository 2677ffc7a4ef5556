"""Predicting cluster membership from third-place covariates.

An L2-regularized multinomial logistic regression maps the 12 covariates to
cluster probabilities. Because the synthetic city plants POI intensity that
rises with the archetype index, the fitted diversity coefficients should be
negative for the sparse archetype's cluster and positive for the dense one.
"""

import numpy as np

from vibrancy import (
    build_features,
    build_signatures,
    evaluate,
    filter_rare_labels,
    fit,
    kmeans,
    predict,
    predict_proba,
    relative_risk,
    standardize,
)
from vibrancy.logit import coefficient_table, gradient_check
from vibrancy.synth import SynthSpec, adjusted_rand_index, generate

spec = SynthSpec(
    seed=11, n_cells=150, k_true=3, noise_sigma=1.5,
    poi_intensity=np.array([[0.1] * 5, [2.0] * 5, [8.0] * 5]),
)
truth = generate(spec)
print(f"synthetic city: {spec.n_cells} cells, {len(truth.traffic)} traffic records, "
      f"{len(truth.pois)} POIs\n")

tensor = build_signatures(truth.traffic, truth.service_taxonomy, truth.region, "weekday")
rr = relative_risk(tensor)
clusters = kmeans(rr, 3, seed=5)
print(f"clustered, ARI vs plant = "
      f"{adjusted_rand_index(clusters.labels, truth.archetype_of):.2f}")

pois = filter_rare_labels(truth.pois, 10)
table = standardize(build_features(pois, truth.place_taxonomy, truth.region,
                                   cells=rr.cells))
model = fit(table.values, clusters.labels, lam=1.0, covariates=table.columns)
print(f"fit converged={model.converged} after {model.n_iter} Newton steps "
      f"(final loss {model.final_loss:.4f})")
print(f"analytic-vs-numeric gradient discrepancy: "
      f"{gradient_check(model, table.values, clusters.labels):.2e}\n")

y_hat = predict(model, table.values)
report = evaluate(list(clusters.labels), list(y_hat))
print(f"training metrics: accuracy {report.accuracy:.3f}, "
      f"macro F1 {report.macro_f1:.3f}, weighted F1 {report.weighted_f1:.3f}\n")

print("== coefficient table (one row per covariate, one column per cluster) ==")
header, rows = coefficient_table(model)
print(f"{header[0]:<34}" + "".join(f"{h:>11}" for h in header[1:]))
for row in rows:
    print(f"{row[0]:<34}" + "".join(f"{v:>11.3f}" for v in row[1:]))

sizes = clusters.sizes()
print("\ncluster sizes:", {lab: sizes[lab] for lab in sorted(sizes)})
print("""
reading the table: a positive diversity coefficient for a cluster means
cells with more varied third places are more likely to belong to it; the
sum-to-zero constraint across columns makes the columns directly comparable.
""")

cell = table.values[0]
print(f"example probabilities for the first cell: "
      f"{np.round(predict_proba(model, cell), 3)} -> cluster {predict(model, cell)}")
