"""Pinned classifier output over a fixed seeded instance set.

The sha256 of the concatenated `classify(...).to_json_dict()` reports
covers every verdict, witness and certificate byte, so any change to the
classifier's decisions or to its witness selection shows here. The set mixes
the oracle-comparison stream (planted and random instances with the
structural corners) with instances whose X_0 leaves ad(X_0) on g_1 with a
kernel, so the degree-1 solve has free directions.
"""

import hashlib
import json
import random

from parahol import linalg
from parahol.classify import HolonomyDatum, classify
from parahol.families import build_conformal, build_cr
from parahol.sampling import comparison_instances, kernel_instance
from parahol.scales import default_scale

PER_KIND = 75  # instances per kind and algebra: 4 algebras x 2 kinds x 75 = 600
GOLDEN_SHA256 = "cc3502f7e61aa74ca295407fe051a09663678f71064a1ecf2b2b9a47574cfcf3"


def _has_grade_one_kernel(algebra, x):
    return (linalg.rank(algebra.ad_block(x.component(0), 1, 1))
            < len(algebra.indices_of_grade(1)))


def test_classify_reports_match_golden_hash():
    digest = hashlib.sha256()
    count = with_kernel = 0
    for seed, algebra in enumerate([build_conformal(3, 0), build_conformal(2, 1),
                                    build_cr(1), build_cr(2)]):
        scale = default_scale(algebra)
        rng = random.Random(7000 + seed)
        instances = comparison_instances(algebra, scale, PER_KIND, 9000 + seed)
        instances += [kernel_instance(algebra, rng) for _ in range(PER_KIND)]
        for x in instances:
            report = classify(HolonomyDatum(algebra, x, scale)).to_json_dict()
            digest.update(json.dumps(report, sort_keys=True).encode() + b"\n")
            count += 1
            with_kernel += _has_grade_one_kernel(algebra, x)
    assert count == 600
    assert with_kernel >= 4 * PER_KIND
    assert digest.hexdigest() == GOLDEN_SHA256
