"""Anomaly detection within time series via local neural transformations.

A self-supervised detector: a strided-convolution encoder and a recurrent
context module are trained with a contrastive-predictive objective, jointly
with a bank of learned latent transformations trained by a deterministic
contrastive loss.  The per-timestep contribution of that loss is the anomaly
score.

Submodules
----------
tensor     minimal dense-tensor engine with reverse-mode autodiff
model      encoder / context / prediction heads / transformation bank / decoder
checkpoint binary named-tensor checkpoint format
losses     CPC loss, DDCL, unified training objective
scoring    deterministic per-timestep anomaly scores
training   joint optimisation and decoder fitting
data       CSV ingestion, normalisation, synthetic series, anomaly injection
metrics    ROC-AUC, best-F1 threshold search
cli        `lnt` command line: synth / train / score / eval / viz-decode
"""

__version__ = "0.1.0"

# Keep this module import-light: `lnt.cli` applies the LNT_THREADS cap
# before numpy is first imported, which only works if importing the
# package itself does not pull numpy in.
__all__ = [
    "tensor",
    "model",
    "checkpoint",
    "losses",
    "scoring",
    "training",
    "data",
    "metrics",
    "cli",
]
