"""From raw traffic rows to normalized usage signatures.

A cell's signature is its traffic volume per 2-hour bin per app category,
kept separately for weekdays (Monday-Thursday) and weekends (Friday-Sunday).
Relative risk then turns absolute volumes into ratios against the mean of
all other cells, so a text app and a video app become comparable.
"""

import io

import numpy as np

from vibrancy import (
    CellId,
    CityRegion,
    GridSpec,
    build_signatures,
    day_type_of,
    bin_of,
    minmax_scale,
    relative_risk,
)
from vibrancy.ingest import load_taxonomy, read_traffic

grid = GridSpec(0, 0, 3, 1, 100.0, "microtown")
region = CityRegion(grid, frozenset(CellId(c, 0) for c in range(3)))

taxonomy = load_taxonomy(io.StringIO(
    "service,category\n"
    "Apple iMessage,Messaging\nWhatsApp,Messaging\nNetflix,Video Streaming\n"
))
print(f"taxonomy: {len(taxonomy.mapping)} services -> {taxonomy.n_categories} categories "
      f"{taxonomy.categories}\n")

print("== temporal conventions ==")
for stamp in ["2019-03-18T09:30", "2019-03-22T09:30", "2019-03-17T23:45"]:
    from datetime import datetime
    ts = datetime.fromisoformat(stamp)
    print(f"{stamp} ({ts.strftime('%A'):>9}) -> {day_type_of(ts):7} bin {bin_of(ts)}")
print("Friday counts as weekend; bins are two hours wide.\n")

traffic_csv = """col,row,timestamp,service,direction,volume
0,0,2019-03-18T08:00,WhatsApp,downlink,6.0
0,0,2019-03-18T08:15,WhatsApp,uplink,2.0
1,0,2019-03-18T08:00,Apple iMessage,downlink,3.0
2,0,2019-03-18T08:30,WhatsApp,downlink,1.0
2,0,2019-03-18T09:45,Netflix,downlink,40.0
1,0,2019-03-22T08:00,WhatsApp,downlink,99.0
"""
table, report = read_traffic(io.StringIO(traffic_csv), grid)
print(f"read {report.accepted} rows ({len(table.stamps)} distinct timestamps, "
      f"{len(table.services)} services), rejected {report.rejected}")

tensor = build_signatures(table, taxonomy, region, "weekday")
b = 4  # the 08:00-09:59 bin
print("\nweekday volumes in bin 4 (08:00-09:59), Messaging column:")
print(f"  cells {[(c.col, c.row) for c in tensor.cells]} -> "
      f"{tensor.values[:, b, 0]}   (the Friday record is excluded)")
print(f"video column: {tensor.values[:, b, 1]}")

rr = relative_risk(tensor)
print("\nafter relative risk (each cell vs the mean of the others):")
print(f"  messaging: {np.round(rr.values[:, b, 0], 4)}")
print(f"  video:     {np.round(rr.values[:, b, 1], 4)}")
print(f"  capped columns (a lone active cell): {len(rr.capped_columns)}")

print("\nthe classic worked example, column [2, 1, 1]:")
print("  cell 0: 2 / mean(1, 1)   = 2.0")
print("  cell 1: 1 / mean(2, 1)   = 0.6667")

print("\nmin-max scaling (plot preparation only, never fed to the models):")
series = tensor.values[:, :, 1].sum(axis=0)
print(f"  raw video curve:    {series}")
print(f"  scaled to [0, 1]:   {np.round(minmax_scale(series), 3)}")
