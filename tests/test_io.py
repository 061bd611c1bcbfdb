import numpy as np
import pytest

from polarfact import io


def read_csv(tmp_path, text):
    path = tmp_path / "Y.csv"
    path.write_text(text)
    return io.read_measure_csv(str(path))


class TestReadMeasureCsv:
    def test_reads_labels_coordinates_and_weights(self, tmp_path):
        Y = read_csv(tmp_path, "label,coord_1,coord_2,weight\ny0,0.5,1,0.25\n\ny1,-1,2,0.75\n")
        assert Y.labels == ("y0", "y1")
        np.testing.assert_array_equal(Y.coords, [[0.5, 1.0], [-1.0, 2.0]])
        np.testing.assert_array_equal(Y.weights, [0.25, 0.75])

    def test_label_and_weight_alone_is_abstract(self, tmp_path):
        Y = read_csv(tmp_path, "label,weight\nx0,1\n")
        assert Y.coords is None and Y.weights.tolist() == [1.0]

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="CSV header must be label,coord_1"):
            read_csv(tmp_path, "")

    @pytest.mark.parametrize(
        "header",
        ["label", "name,coord_1,weight", "label,x,weight", "label,coord_2,weight",
         "label,coord_1,coord_3,weight", "label,weight,coord_1", "label,coord_1,mass"],
    )
    def test_other_header_rejected(self, tmp_path, header):
        with pytest.raises(ValueError, match="CSV header must be label,coord_1"):
            read_csv(tmp_path, f"{header}\ny0,0.5,0.5\n")

    @pytest.mark.parametrize("row", ["y0,0.5", "y0,0.5,0.5,1"])
    def test_row_of_another_length_rejected(self, tmp_path, row):
        # a short row used to be read with its last field as coordinate and weight
        with pytest.raises(ValueError, match=r"line 3 has \d fields, the header has 3"):
            read_csv(tmp_path, f"label,coord_1,weight\ny1,1.0,0.5\n{row}\n")
