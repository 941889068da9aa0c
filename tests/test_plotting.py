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
