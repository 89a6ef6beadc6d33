"""Read the ambient points back from a `gq export` CSV file."""

import csv


def read_csv_points(path) -> list[tuple[float, float, float, float]]:
    """Columns x1..x4 of every row, as floats; rejects any other header."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:4] != ["x1", "x2", "x3", "x4"]:
            raise ValueError("not a surface CSV")
        for row in reader:
            points.append(tuple(float(v) for v in row[:4]))
    return points
