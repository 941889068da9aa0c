import hashlib
import xml.etree.ElementTree as ET

import numpy as np

from monopann import plotting


def test_markup_in_labels_is_escaped():
    series = [
        plotting.Series(np.array([1.0, 2.0]), np.array([0.0, 1.0]), label="a<b & c"),
        plotting.Series(np.array([1.0, 2.0]), np.array([1.0, 0.5]), label="d>e",
                        markers=True),
    ]
    svg = plotting.line_chart(
        series, title="P & Q <model>", xlabel="lambda<1", ylabel="P [MPa] & t"
    )
    root = ET.fromstring(svg)
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    for label in ("a<b & c", "d>e", "P & Q <model>", "lambda<1", "P [MPa] & t"):
        assert label in texts


def test_chart_bytes_are_fixed():
    """A chart of one marker series and one line series, with a title and
    both axis labels, keeps the exact bytes it had when its size and tick
    count were options."""
    lam = np.linspace(1.0, 2.0, 11)
    series = [
        plotting.Series(np.array([1.0, 1.25, 1.5, 2.0]), np.array([0.0, 0.31, 0.58, 1.12]),
                        label="data p=0.5", markers=True),
        plotting.Series(lam, 0.4 * (lam * lam - 1.0 / lam), label="model p=0.5"),
    ]
    svg = plotting.line_chart(series, title="oracle", xlabel="stretch", ylabel="stress in MPa")
    digest = hashlib.sha256(svg.encode()).hexdigest()
    assert digest == "a86fdd9477517147f25672ee8ab9d40c5ba7c34a00236c13535c205f50594097"
