"""hirsim: speech intelligibility prediction for hearing-impaired listeners
from the similarity of ASR hidden-representation sequences.

Pipeline: log-mel features -> toy forward-only transformer -> binaural
cosine/DTW similarity -> logistic calibration -> RMSE/NCC/Kendall-tau
evaluation against listener word correctness.
"""

__version__ = "0.1.0"
