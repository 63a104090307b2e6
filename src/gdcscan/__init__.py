"""Single-SNP association testing with a tunable genotype distance
covariance: exact finite-sample p-values, screening bounds, covariate
adjustment, dosage/multiallelic support, and a batched scan pipeline."""

# nulldist first: it imports SciPy, and SciPy first imported from inside
# `adjust` (which imports nulldist) made `import gdcscan` 10-15 ms slower,
# in the encoding scan of the charset_normalizer that SciPy pulls in
from .nulldist import (
    NullSpectrum,
    NumericsError,
    asymptotic_pvalue,
    exact_pvalue,
    genF_cdf,
    genF_sf,
    pvalue_bounds,
    spectrum_from_features,
    spectrum_unadjusted,
    weighted_chisq_tail,
)
from .adjust import CovariateMatrix, ResidualizedPhenotype, residualize
from .backend import BACKEND_NAME, get_backend
from .gdc import Sample, dcov_fast, standardized_statistic
from .premetric import GenotypeColumn
from .scan import ScanConfig, ScanRecord, run_multiallelic, run_scan, write_results
from .simbench import (
    SimScenario,
    competitor_tests,
    draw_heterozygous_effect,
    simulate_null,
    simulate_power,
)

__version__ = "0.1.0"
